"""Config-driven experiment runner.

Experiments are described by a flat key-value document (``section.key =
value`` lines, ``#`` comments). Powers are given in dBm for ergonomics and
converted to watts exactly once at parse time. Named presets bundle the
deployment and sweep used by the reference figures; preset fields override
manual fields, and the fully expanded effective configuration is echoed next
to the results so every output is self-describing and re-parseable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from .analytics import (
    OutageParams,
    ergodic_pin_two_user_highsnr,
    outage_conv_model_a_highsnr,
    outage_conv_model_b_highsnr,
    outage_pin_model_a_highsnr,
    outage_pin_model_b,
)
from .montecarlo import (
    MetricEstimate,
    MetricKind,
    Provenance,
    Scheme,
    SweepAxis,
    apply_axis,
    sweep,
)
from .scenario import (
    SPEED_OF_LIGHT,
    BlockageModel,
    LossCase,
    SystemConfig,
    dbm_to_watt,
)

SCHEMA_VERSION = "pinchsim-results-v1"
CSV_COLUMNS = ("scheme", "axis_name", "axis_value", "metric", "value",
               "ci_half_width", "n_trials", "provenance", "seed")


class OutputFormat(Enum):
    CSV = "csv"
    JSON = "json"


class Preset(Enum):
    FIG1 = "FIG1"
    FIG2A = "FIG2A"
    FIG2B = "FIG2B"
    FIG3A = "FIG3A"
    FIG3B = "FIG3B"
    FIG4 = "FIG4"


@dataclass(frozen=True)
class RunSpec:
    """What to run: schemes, metric, sweep, trial budget, output."""

    schemes: tuple[Scheme, ...]
    metric: MetricKind
    sweep_axis: SweepAxis
    axis_values: tuple[float, ...]
    n_trials: int
    master_seed: int
    output: str
    fmt: OutputFormat = OutputFormat.CSV
    r_target: float | None = None
    workers: int = 1
    analytics: bool = True


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment: physical system plus run specification.

    ``tx_power_dbm`` and ``noise_dbm`` keep the human-facing units so the
    effective-config echo round-trips bit-exactly; ``system`` carries the
    converted watts.
    """

    system: SystemConfig
    run: RunSpec
    tx_power_dbm: float
    noise_dbm: float
    preset_name: str | None = field(default=None, compare=False)


# --------------------------------------------------------------------------
# Config schema
# --------------------------------------------------------------------------

_SYSTEM_KEYS = (
    "system.num_users", "system.d_w", "system.d_l", "system.height",
    "system.carrier_freq_hz", "system.noise_dbm", "system.tx_power_dbm",
    "system.blockage_model", "system.phi", "system.loss_case",
    "system.waveguide_loss_db_per_m", "system.n_eff",
    "system.constrain_under_waveguide",
)
_RUN_KEYS = (
    "run.schemes", "run.metric", "run.sweep_axis", "run.axis_values",
    "run.r_target", "run.n_trials", "run.master_seed", "run.workers",
    "run.output", "run.format", "run.analytics",
)
_KNOWN_KEYS = ("preset",) + _SYSTEM_KEYS + _RUN_KEYS

_REQUIRED_KEYS = (
    "system.num_users", "system.d_w", "system.d_l", "system.tx_power_dbm",
    "system.phi", "system.blockage_model",
    "run.schemes", "run.metric", "run.sweep_axis", "run.axis_values",
    "run.n_trials", "run.master_seed", "run.output",
)

_DEFAULTS: dict[str, object] = {
    "system.height": 3.0,
    "system.carrier_freq_hz": 28e9,
    "system.noise_dbm": -90.0,
    "system.loss_case": LossCase.CASE_I,
    "system.waveguide_loss_db_per_m": 0.08,
    "system.n_eff": 1.4,
    "system.constrain_under_waveguide": False,
    "run.r_target": None,
    "run.workers": 1,
    "run.format": OutputFormat.CSV,
    "run.analytics": True,
}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ConfigError(f"{key}: expected true or false, got {raw!r}")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_enum(key: str, raw: str, enum_cls):
    token = raw.strip().upper()
    for member in enum_cls:
        if member.value.upper() == token or member.name == token:
            return member
    options = ", ".join(m.value for m in enum_cls)
    raise ConfigError(f"{key}: unknown value {raw!r} (expected one of {options})")


def _parse_value(key: str, raw: str):
    if key == "preset":
        return _parse_enum(key, raw, Preset)
    if key == "system.num_users":
        return _parse_int(key, raw)
    if key in ("system.d_w", "system.d_l", "system.height",
               "system.carrier_freq_hz", "system.noise_dbm",
               "system.tx_power_dbm", "system.phi",
               "system.waveguide_loss_db_per_m", "system.n_eff"):
        return _parse_float(key, raw)
    if key == "system.blockage_model":
        return _parse_enum(key, raw, BlockageModel)
    if key == "system.loss_case":
        return _parse_enum(key, raw, LossCase)
    if key == "system.constrain_under_waveguide":
        return _parse_bool(key, raw)
    if key == "run.schemes":
        tokens = [t.strip() for t in raw.split(",") if t.strip()]
        if not tokens:
            raise ConfigError("run.schemes: expected at least one scheme")
        return tuple(_parse_enum("run.schemes", t, Scheme) for t in tokens)
    if key == "run.metric":
        return _parse_enum(key, raw, MetricKind)
    if key == "run.sweep_axis":
        return _parse_enum(key, raw, SweepAxis)
    if key == "run.axis_values":
        tokens = [t.strip() for t in raw.split(",") if t.strip()]
        if not tokens:
            raise ConfigError("run.axis_values: expected at least one value")
        return tuple(_parse_float("run.axis_values", t) for t in tokens)
    if key == "run.r_target":
        return _parse_float(key, raw)
    if key in ("run.n_trials", "run.master_seed", "run.workers"):
        return _parse_int(key, raw)
    if key == "run.output":
        if not raw:
            raise ConfigError("run.output: expected a path")
        return raw
    if key == "run.format":
        return _parse_enum(key, raw, OutputFormat)
    if key == "run.analytics":
        return _parse_bool(key, raw)
    raise ConfigError(f"unknown config key: {key!r}")


def _read_flat_document(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key: {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate config key: {key!r}")
        raw[key] = value
    return raw


def _fig2_default_r_target() -> float:
    """Target rate placing the distance threshold at twice the height for
    the 10 dBm figure presets."""
    gain = SPEED_OF_LIGHT ** 2 / (16.0 * math.pi ** 2 * 28e9 ** 2)
    return math.log2(1.0 + gain * dbm_to_watt(10.0) / (1e-12 * (2.0 * 3.0) ** 2))


def preset_fields(preset: Preset) -> dict[str, object]:
    """Typed config fields a preset pins (preset fields beat manual ones)."""
    base = {
        "system.height": 3.0,
        "system.carrier_freq_hz": 28e9,
        "system.noise_dbm": -90.0,
        "system.n_eff": 1.4,
        "system.waveguide_loss_db_per_m": 0.08,
        "system.phi": 0.1,
        "system.constrain_under_waveguide": False,
        "run.n_trials": 100000,
        "run.master_seed": 12345,
        "run.analytics": True,
    }
    if preset is Preset.FIG1:
        base.update({
            "system.num_users": 1, "system.d_w": 10.0, "system.d_l": 40.0,
            "system.blockage_model": BlockageModel.MODEL_A,
            "system.loss_case": LossCase.CASE_I,
            "system.tx_power_dbm": 10.0,
            "run.schemes": (Scheme.PIN_D2, Scheme.CONV),
            "run.metric": MetricKind.ERGODIC_SUM,
            "run.sweep_axis": SweepAxis.TX_POWER_DBM,
            "run.axis_values": (10.0, 20.0, 30.0, 40.0),
            "run.output": "fig1.csv",
        })
    elif preset in (Preset.FIG2A, Preset.FIG2B):
        base.update({
            "system.num_users": 1,
            "system.d_w": 10.0 if preset is Preset.FIG2A else 5.0,
            "system.d_l": 40.0,
            "system.blockage_model": (BlockageModel.MODEL_A
                                      if preset is Preset.FIG2A
                                      else BlockageModel.MODEL_B),
            "system.loss_case": LossCase.CASE_II,
            "system.tx_power_dbm": 10.0,
            "run.schemes": (Scheme.PIN_D2, Scheme.CONV),
            "run.metric": MetricKind.OUTAGE,
            "run.sweep_axis": SweepAxis.D_L,
            "run.axis_values": (10.0, 20.0, 40.0, 80.0),
            "run.r_target": _fig2_default_r_target(),
            "run.n_trials": 200000,
            "run.output": f"{preset.value.lower()}.csv",
        })
    elif preset in (Preset.FIG3A, Preset.FIG3B):
        base.update({
            "system.num_users": 2 if preset is Preset.FIG3A else 5,
            "system.d_w": 10.0, "system.d_l": 40.0,
            "system.blockage_model": BlockageModel.MODEL_A,
            "system.loss_case": LossCase.CASE_I,
            "system.tx_power_dbm": 10.0,
            "run.schemes": (Scheme.PIN_D1, Scheme.PIN_D2, Scheme.CONV),
            "run.metric": MetricKind.ERGODIC_SUM,
            "run.sweep_axis": SweepAxis.TX_POWER_DBM,
            "run.axis_values": (10.0, 20.0, 30.0, 40.0),
            "run.output": f"{preset.value.lower()}.csv",
        })
    elif preset is Preset.FIG4:
        base.update({
            "system.num_users": 2, "system.d_w": 10.0, "system.d_l": 40.0,
            "system.blockage_model": BlockageModel.MODEL_B,
            "system.loss_case": LossCase.CASE_I,
            "system.tx_power_dbm": 10.0,
            "system.constrain_under_waveguide": True,
            "run.schemes": (Scheme.PIN_D2, Scheme.CONV),
            "run.metric": MetricKind.ERGODIC_PER_USER,
            "run.sweep_axis": SweepAxis.TX_POWER_DBM,
            "run.axis_values": (10.0, 20.0, 30.0, 40.0),
            "run.output": "fig4.csv",
        })
    else:  # pragma: no cover - exhaustive over Preset
        raise ConfigError(f"unknown preset: {preset}")
    return base


def _require(values: dict[str, object], key: str):
    if key not in values or values[key] is None:
        raise ConfigError(f"missing required config key: {key!r}")
    return values[key]


def _build_config(values: dict[str, object],
                  preset_name: str | None) -> ExperimentConfig:
    for key in _REQUIRED_KEYS:
        _require(values, key)

    num_users = values["system.num_users"]
    if num_users < 1:
        raise ConfigError("system.num_users: must be >= 1")
    for key in ("system.d_w", "system.d_l", "system.height",
                "system.carrier_freq_hz", "system.n_eff"):
        if not values[key] > 0:
            raise ConfigError(f"{key}: must be > 0")
    if values["system.phi"] < 0:
        raise ConfigError("system.phi: must be >= 0")
    if values["system.waveguide_loss_db_per_m"] < 0:
        raise ConfigError("system.waveguide_loss_db_per_m: must be >= 0")
    if values["run.n_trials"] < 1:
        raise ConfigError("run.n_trials: must be >= 1")
    if values["run.workers"] < 1:
        raise ConfigError("run.workers: must be >= 1")
    if values["run.master_seed"] < 0:
        raise ConfigError("run.master_seed: must be >= 0")
    axis_values = values["run.axis_values"]
    if any(b <= a for a, b in zip(axis_values, axis_values[1:])):
        raise ConfigError("run.axis_values: must be strictly increasing")

    metric = values["run.metric"]
    sweep_axis = values["run.sweep_axis"]
    r_target = values["run.r_target"]
    if metric is MetricKind.OUTAGE and sweep_axis is not SweepAxis.R_TARGET:
        if r_target is None:
            raise ConfigError("missing required config key: 'run.r_target' "
                              "(needed for the OUTAGE metric)")
    if r_target is not None and not r_target > 0:
        raise ConfigError("run.r_target: must be > 0")

    tx_power_dbm = float(values["system.tx_power_dbm"])
    noise_dbm = float(values["system.noise_dbm"])
    system = SystemConfig(
        num_users=num_users,
        d_w=float(values["system.d_w"]),
        d_l=float(values["system.d_l"]),
        height=float(values["system.height"]),
        carrier_freq=float(values["system.carrier_freq_hz"]),
        noise_power=dbm_to_watt(noise_dbm),
        tx_power=dbm_to_watt(tx_power_dbm),
        phi=float(values["system.phi"]),
        blockage_model=values["system.blockage_model"],
        loss_case=values["system.loss_case"],
        waveguide_loss_db_per_m=float(values["system.waveguide_loss_db_per_m"]),
        n_eff=float(values["system.n_eff"]),
        constrain_under_waveguide=values["system.constrain_under_waveguide"],
    )
    run = RunSpec(
        schemes=values["run.schemes"],
        metric=metric,
        sweep_axis=sweep_axis,
        axis_values=axis_values,
        n_trials=values["run.n_trials"],
        master_seed=values["run.master_seed"],
        output=values["run.output"],
        fmt=values["run.format"],
        r_target=r_target,
        workers=values["run.workers"],
        analytics=values["run.analytics"],
    )
    return ExperimentConfig(system=system, run=run, tx_power_dbm=tx_power_dbm,
                            noise_dbm=noise_dbm, preset_name=preset_name)


def parse_config(document: str) -> ExperimentConfig:
    """Parse and validate a flat key-value experiment document.

    Unknown keys are rejected so typos never silently disappear; error
    messages carry the offending key path.
    """
    raw = _read_flat_document(document)
    values: dict[str, object] = dict(_DEFAULTS)
    preset_name = None
    for key, raw_value in raw.items():
        if key == "preset":
            continue
        values[key] = _parse_value(key, raw_value)
    if "preset" in raw:
        preset = _parse_value("preset", raw["preset"])
        preset_name = preset.value
        values.update(preset_fields(preset))
    return _build_config(values, preset_name)


def parse_config_file(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# Effective-config echo
# --------------------------------------------------------------------------

def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def effective_config_text(cfg: ExperimentConfig) -> str:
    """Serialize the effective config; parsing the result reproduces it."""
    sys_cfg = cfg.system
    run = cfg.run
    pairs = [
        ("system.num_users", sys_cfg.num_users),
        ("system.d_w", sys_cfg.d_w),
        ("system.d_l", sys_cfg.d_l),
        ("system.height", sys_cfg.height),
        ("system.carrier_freq_hz", sys_cfg.carrier_freq),
        ("system.noise_dbm", cfg.noise_dbm),
        ("system.tx_power_dbm", cfg.tx_power_dbm),
        ("system.blockage_model", sys_cfg.blockage_model),
        ("system.phi", sys_cfg.phi),
        ("system.loss_case", sys_cfg.loss_case),
        ("system.waveguide_loss_db_per_m", sys_cfg.waveguide_loss_db_per_m),
        ("system.n_eff", sys_cfg.n_eff),
        ("system.constrain_under_waveguide", sys_cfg.constrain_under_waveguide),
        ("run.schemes", run.schemes),
        ("run.metric", run.metric),
        ("run.sweep_axis", run.sweep_axis),
        ("run.axis_values", run.axis_values),
        ("run.n_trials", run.n_trials),
        ("run.master_seed", run.master_seed),
        ("run.workers", run.workers),
        ("run.output", run.output),
        ("run.format", run.fmt),
        ("run.analytics", run.analytics),
    ]
    if run.r_target is not None:
        pairs.insert(17, ("run.r_target", run.r_target))
    lines = ["# effective configuration"]
    if cfg.preset_name is not None:
        lines.append(f"# expanded from preset {cfg.preset_name}")
    lines += [f"{key} = {_format_value(value)}" for key, value in pairs]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Experiment execution
# --------------------------------------------------------------------------

def _metric_label(kind: MetricKind, user_index: int | None = None) -> str:
    if kind is MetricKind.ERGODIC_PER_USER:
        return f"ERGODIC_USER_{user_index + 1}"
    return kind.value


def _closed_form_entries(scheme: Scheme, cfg: ExperimentConfig,
                         cfg_point: SystemConfig,
                         r_target: float | None) -> list[tuple[str, float]]:
    """Analytical counterparts of a simulated point, when one exists."""
    metric = cfg.run.metric
    if metric is MetricKind.OUTAGE:
        if cfg_point.num_users != 1 or r_target is None:
            return []
        p = OutageParams(cfg=cfg_point, r_target=r_target)
        if scheme in (Scheme.PIN_D1, Scheme.PIN_D2):
            if cfg_point.blockage_model is BlockageModel.MODEL_A:
                value = outage_pin_model_a_highsnr(p)
            else:
                value = outage_pin_model_b(p)
        else:
            if cfg_point.blockage_model is BlockageModel.MODEL_A:
                value = outage_conv_model_a_highsnr(p)
            else:
                value = outage_conv_model_b_highsnr(p)
        return [("OUTAGE", value)]

    two_user_case = (scheme is Scheme.PIN_D2
                     and cfg_point.num_users == 2
                     and cfg_point.blockage_model is BlockageModel.MODEL_B
                     and cfg_point.constrain_under_waveguide)
    if not two_user_case:
        return []
    value = ergodic_pin_two_user_highsnr(cfg_point)
    if metric is MetricKind.ERGODIC_SUM:
        # The two users are mirror images, so the sum is twice user 1's rate.
        return [("ERGODIC_SUM", 2.0 * value)]
    return [("ERGODIC_USER_1", value)]


def collect_rows(cfg: ExperimentConfig) -> list[dict]:
    """Run the configured sweep and return output rows in a frozen order.

    All schemes are simulated together, one pass per sweep point; the rows
    still come scheme by scheme.
    """
    run = cfg.run
    rows: list[dict] = []
    per_scheme = sweep(cfg.system, run.schemes, run.sweep_axis, run.axis_values,
                       run.metric, run.n_trials, run.master_seed,
                       r_target=run.r_target, workers=run.workers)
    for scheme, points in zip(run.schemes, per_scheme):
        for point in points:
            for idx, est in enumerate(point.estimates):
                user = idx if run.metric is MetricKind.ERGODIC_PER_USER else None
                rows.append(_row(scheme, run, point.axis_value,
                                 _metric_label(est.metric_kind, user), est))
            if run.analytics:
                cfg_point, rt = apply_axis(cfg.system, run.sweep_axis,
                                           point.axis_value, run.r_target)
                for label, value in _closed_form_entries(scheme, cfg, cfg_point, rt):
                    est = MetricEstimate(value=value, ci_half_width=0.0,
                                         n_trials=0, metric_kind=run.metric,
                                         provenance=Provenance.CLOSED_FORM)
                    rows.append(_row(scheme, run, point.axis_value, label, est))
    return rows


def _row(scheme: Scheme, run: RunSpec, axis_value: float, label: str,
         est: MetricEstimate) -> dict:
    return {
        "scheme": scheme.value,
        "axis_name": run.sweep_axis.value,
        "axis_value": axis_value,
        "metric": label,
        "value": est.value,
        "ci_half_width": est.ci_half_width,
        "n_trials": est.n_trials,
        "provenance": est.provenance.value,
        "seed": run.master_seed,
    }


def _render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(f"# schema: {SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([
            row["scheme"], row["axis_name"], repr(row["axis_value"]),
            row["metric"], repr(row["value"]), repr(row["ci_half_width"]),
            row["n_trials"], row["provenance"], row["seed"],
        ])
    return buf.getvalue()


def _render_json(rows: list[dict]) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, "rows": rows}, indent=2) + "\n"


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Execute the experiment and write results plus the config echo.

    Returns the written paths; raises OSError if the output is unwritable.
    """
    rows = collect_rows(cfg)
    out_path = Path(cfg.run.output)
    text = (_render_csv(rows) if cfg.run.fmt is OutputFormat.CSV
            else _render_json(rows))
    out_path.write_text(text, encoding="utf-8")
    echo_path = Path(str(out_path) + ".config")
    echo_path.write_text(effective_config_text(cfg), encoding="utf-8")
    return [out_path, echo_path]


# --------------------------------------------------------------------------
# Figure reproduction
# --------------------------------------------------------------------------

_AXIS_TITLES = {
    SweepAxis.TX_POWER_DBM: "transmit power (dBm)",
    SweepAxis.D_L: "service-area length d_l (m)",
    SweepAxis.R_TARGET: "target rate (bits/s/Hz)",
}

_METRIC_TITLES = {
    MetricKind.OUTAGE: "outage probability",
    MetricKind.ERGODIC_PER_USER: "ergodic rate (bits/s/Hz)",
    MetricKind.ERGODIC_SUM: "ergodic sum rate (bits/s/Hz)",
}


def _plot_stub(csv_names: list[str], schemes: tuple[Scheme, ...],
               axis: SweepAxis, metric: MetricKind, logscale: bool) -> str:
    lines = [
        "# gnuplot stub: value (column 5) vs axis_value (column 3),",
        "# one curve per scheme (column 1); CLOSED_FORM rows overlay as lines.",
        "set datafile separator ','",
        "set datafile commentschars '#'",
        f"set xlabel '{_AXIS_TITLES[axis]}'",
        f"set ylabel '{_METRIC_TITLES[metric]}'",
        "set key bottom right",
    ]
    if logscale:
        lines.append("set logscale y")
    plots = []
    for name in csv_names:
        for scheme in schemes:
            token = scheme.value
            plots.append(
                f"'{name}' using 3:(strcol(1) eq '{token}' && "
                f"strcol(8) eq 'SIMULATED' ? column(5) : NaN) "
                f"with linespoints title '{name} {token} simulated'")
            plots.append(
                f"'{name}' using 3:(strcol(1) eq '{token}' && "
                f"strcol(8) eq 'CLOSED_FORM' ? column(5) : NaN) "
                f"with lines title '{name} {token} analytical'")
    lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    return "\n".join(lines) + "\n"


def reproduce_figure(figure_id, output_dir, *, n_trials: int | None = None,
                     master_seed: int | None = None,
                     workers: int | None = None) -> list[Path]:
    """Emit a preset's data (CSV) plus a small plot-script stub.

    The first bundled figure compares the lossless and lossy waveguide cases,
    so it produces one CSV per case; the others produce a single CSV.
    """
    if isinstance(figure_id, Preset):
        preset = figure_id
    else:
        try:
            preset = Preset(str(figure_id).upper())
        except ValueError:
            known = ", ".join(p.value.lower() for p in Preset)
            raise ConfigError(
                f"unknown figure id {figure_id!r} (expected one of {known})"
            ) from None

    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = preset.value.lower()

    values = dict(_DEFAULTS)
    values.update(preset_fields(preset))
    if n_trials is not None:
        values["run.n_trials"] = n_trials
    if master_seed is not None:
        values["run.master_seed"] = master_seed
    if workers is not None:
        values["run.workers"] = workers

    written: list[Path] = []
    csv_names: list[str] = []
    if preset is Preset.FIG1:
        cases = [(LossCase.CASE_I, f"{name}_case_i.csv"),
                 (LossCase.CASE_II, f"{name}_case_ii.csv")]
    else:
        cases = [(values["system.loss_case"], f"{name}.csv")]
    for loss_case, csv_name in cases:
        case_values = dict(values)
        case_values["system.loss_case"] = loss_case
        case_values["run.output"] = str(out_dir / csv_name)
        cfg = _build_config(case_values, preset.value)
        written += run_experiment(cfg)
        csv_names.append(csv_name)

    run_cfg = _build_config({**values, "run.output": "unused.csv"}, preset.value)
    stub = _plot_stub(csv_names, run_cfg.run.schemes, run_cfg.run.sweep_axis,
                      run_cfg.run.metric,
                      logscale=run_cfg.run.metric is MetricKind.OUTAGE)
    stub_path = out_dir / f"{name}.gp"
    stub_path.write_text(stub, encoding="utf-8")
    written.append(stub_path)
    return written


# --------------------------------------------------------------------------
# Command-line interface
# --------------------------------------------------------------------------

def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    run = cfg.run
    if args.trials is not None:
        run = replace(run, n_trials=args.trials)
    if args.seed is not None:
        run = replace(run, master_seed=args.seed)
    if args.workers is not None:
        run = replace(run, workers=args.workers)
    if getattr(args, "format", None) is not None:
        run = replace(run, fmt=OutputFormat(args.format))
    if getattr(args, "out", None) is not None:
        run = replace(run, output=args.out)
    return replace(cfg, run=run)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchsim",
        description="Outage and ergodic-rate experiments for pinching-antenna "
                    "systems under line-of-sight blockage.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment from a config file")
    sim.add_argument("config", help="path to a flat key-value config document")
    sim.add_argument("--trials", type=int, default=None,
                     help="override run.n_trials")
    sim.add_argument("--seed", type=int, default=None,
                     help="override run.master_seed")
    sim.add_argument("--workers", type=int, default=None,
                     help="override run.workers")
    sim.add_argument("--format", choices=["csv", "json"], default=None,
                     help="override run.format")
    sim.add_argument("--out", default=None, help="override run.output")

    fig = sub.add_parser("figure", help="reproduce a bundled figure preset")
    fig.add_argument("figure_id",
                     help="one of " + ", ".join(p.value.lower() for p in Preset))
    fig.add_argument("--out", required=True, help="output directory")
    fig.add_argument("--trials", type=int, default=None)
    fig.add_argument("--seed", type=int, default=None)
    fig.add_argument("--workers", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = _apply_overrides(parse_config_file(args.config), args)
            for path in run_experiment(cfg):
                print(path)
        else:
            paths = reproduce_figure(args.figure_id, args.out,
                                     n_trials=args.trials,
                                     master_seed=args.seed,
                                     workers=args.workers)
            for path in paths:
                print(path)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

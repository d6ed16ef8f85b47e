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
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
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

class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


# Value parsers: each maps one raw token to a typed value or raises a
# ConfigError whose message the caller prefixes with the key.

def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    raise ConfigError(f"expected true or false, got {raw!r}")


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}") from None


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    # nan and inf would flow into the channel model and out as nan rows.
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {raw!r}")
    return value


def _parse_path(raw: str) -> str:
    if not raw:
        raise ConfigError("expected a path")
    return raw


def _enum(enum_cls):
    def parse(raw: str):
        token = raw.strip().upper()
        for member in enum_cls:
            if member.value.upper() == token or member.name == token:
                return member
        options = ", ".join(m.value for m in enum_cls)
        raise ConfigError(f"unknown value {raw!r} (expected one of {options})")
    return parse


def _list(parse_item, noun: str):
    def parse(raw: str) -> tuple:
        tokens = [t.strip() for t in raw.split(",") if t.strip()]
        if not tokens:
            raise ConfigError(f"expected at least one {noun}")
        return tuple(parse_item(t) for t in tokens)
    return parse


_REQUIRED = object()  # default of a key the document (or a preset) must set


@dataclass(frozen=True)
class _Key:
    """One config key: ``section.leaf`` name, parser, default and the
    SystemConfig (``system.*``) or RunSpec (``run.*``) field it sets.

    A ``dbm`` value sets its field in watts; ExperimentConfig keeps the dBm
    value under the key's leaf name, so the echo round-trips bit-exactly.
    """

    key: str
    parse: Callable[[str], object]
    default: object
    target: str | None
    dbm: bool = False


# The schema. Its order is the order of the effective-config echo.
_KEYS = (
    _Key("preset", _enum(Preset), None, None),
    _Key("system.num_users", _parse_int, _REQUIRED, "num_users"),
    _Key("system.d_w", _parse_float, _REQUIRED, "d_w"),
    _Key("system.d_l", _parse_float, _REQUIRED, "d_l"),
    _Key("system.height", _parse_float, 3.0, "height"),
    _Key("system.carrier_freq_hz", _parse_float, 28e9, "carrier_freq"),
    _Key("system.noise_dbm", _parse_float, -90.0, "noise_power", dbm=True),
    _Key("system.tx_power_dbm", _parse_float, _REQUIRED, "tx_power", dbm=True),
    _Key("system.blockage_model", _enum(BlockageModel), _REQUIRED,
         "blockage_model"),
    _Key("system.phi", _parse_float, _REQUIRED, "phi"),
    _Key("system.loss_case", _enum(LossCase), LossCase.CASE_I, "loss_case"),
    _Key("system.waveguide_loss_db_per_m", _parse_float, 0.08,
         "waveguide_loss_db_per_m"),
    _Key("system.n_eff", _parse_float, 1.4, "n_eff"),
    _Key("system.constrain_under_waveguide", _parse_bool, False,
         "constrain_under_waveguide"),
    _Key("run.schemes", _list(_enum(Scheme), "scheme"), _REQUIRED, "schemes"),
    _Key("run.metric", _enum(MetricKind), _REQUIRED, "metric"),
    _Key("run.sweep_axis", _enum(SweepAxis), _REQUIRED, "sweep_axis"),
    _Key("run.axis_values", _list(_parse_float, "value"), _REQUIRED,
         "axis_values"),
    _Key("run.r_target", _parse_float, None, "r_target"),
    _Key("run.n_trials", _parse_int, _REQUIRED, "n_trials"),
    _Key("run.master_seed", _parse_int, _REQUIRED, "master_seed"),
    _Key("run.workers", _parse_int, 1, "workers"),
    _Key("run.output", _parse_path, _REQUIRED, "output"),
    _Key("run.format", _enum(OutputFormat), OutputFormat.CSV, "fmt"),
    _Key("run.analytics", _parse_bool, True, "analytics"),
)
_SCHEMA = {k.key: k for k in _KEYS}
_FIELD_KEYS = [k for k in _KEYS if k.target is not None]
# SystemConfig or RunSpec field -> config key, to name the key in a range
# error (the two classes share no field name).
_FIELD_KEY = {k.target: k.key for k in _FIELD_KEYS}


def _check_run(values: dict[str, object]) -> None:
    """Run-level checks; SystemConfig checks the physical fields itself."""
    for key, low in (("run.n_trials", 1), ("run.workers", 1),
                     ("run.master_seed", 0)):
        if values[key] < low:
            raise ConfigError(f"{key}: must be >= {low}")
    axis_values = values["run.axis_values"]
    if any(b <= a for a, b in zip(axis_values, axis_values[1:])):
        raise ConfigError("run.axis_values: must be strictly increasing")
    if (values["run.sweep_axis"] is SweepAxis.R_TARGET
            and values["run.metric"] is not MetricKind.OUTAGE):
        raise ConfigError("run.sweep_axis: R_TARGET applies only to the "
                          "OUTAGE metric")
    r_target = values["run.r_target"]
    if r_target is None:
        if (values["run.metric"] is MetricKind.OUTAGE
                and values["run.sweep_axis"] is not SweepAxis.R_TARGET):
            raise ConfigError("missing required config key: 'run.r_target' "
                              "(needed for the OUTAGE metric)")
    elif not r_target > 0:
        raise ConfigError("run.r_target: must be > 0")


def _parse(key: str, raw: str):
    try:
        return _SCHEMA[key].parse(raw)
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


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
        if key not in _SCHEMA:
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


def _build_config(values: dict[str, object],
                  preset_name: str | None) -> ExperimentConfig:
    for k in _KEYS:
        if values[k.key] is _REQUIRED:
            raise ConfigError(f"missing required config key: {k.key!r}")
    _check_run(values)
    fields: dict[str, dict[str, object]] = {"system": {}, "run": {}}
    dbm: dict[str, float] = {}
    for k in _FIELD_KEYS:
        section, _, leaf = k.key.partition(".")
        value = values[k.key]
        if k.dbm:
            dbm[leaf] = value
            value = dbm_to_watt(value)
        fields[section][k.target] = value
    try:
        system = SystemConfig(**fields["system"])
    except ValueError as exc:
        # SystemConfig's messages begin with the offending field's name.
        field_name, _, reason = str(exc).partition(" ")
        raise ConfigError(f"{_FIELD_KEY[field_name]}: {reason}") from None
    run = RunSpec(**fields["run"])
    _check_axis_values(system, run)
    return ExperimentConfig(system=system, run=run, preset_name=preset_name,
                            **dbm)


def _check_axis_values(system: SystemConfig, run: RunSpec) -> None:
    """Build every sweep point's config and target rate as ``sweep`` will,
    so that a value outside its axis' domain fails here, naming
    run.axis_values, and not when the sweep reaches it."""
    for value in run.axis_values:
        try:
            cfg, r_target = apply_axis(system, run.sweep_axis, value,
                                       run.r_target)
            if r_target is not None:
                OutageParams(cfg=cfg, r_target=r_target)
        except ValueError as exc:
            # Both classes' messages begin with the offending field's name.
            field_name, _, reason = str(exc).partition(" ")
            raise ConfigError(f"run.axis_values: value {value!r} for "
                              f"{_FIELD_KEY[field_name]} {reason}") from None


def _resolve(document: dict[str, str],
             overrides: dict[str, str]) -> ExperimentConfig:
    """The one way a config is made: defaults, then the document's keys,
    then the preset's fields, then the overrides, then one build.

    ``document`` and ``overrides`` map keys to raw values, which are parsed
    by the schema.
    """
    values = {k.key: k.default for k in _KEYS}
    values.update((key, _parse(key, raw)) for key, raw in document.items())
    preset = values["preset"]
    if preset is not None:
        values.update(preset_fields(preset))
    values.update((key, _parse(key, raw)) for key, raw in overrides.items())
    return _build_config(values, preset.value if preset is not None else None)


def parse_config(document: str) -> ExperimentConfig:
    """Parse and validate a flat key-value experiment document.

    Unknown keys are rejected so typos never silently disappear; error
    messages carry the offending key path.
    """
    return _resolve(_read_flat_document(document), {})


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
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    return str(value)


def effective_config_text(cfg: ExperimentConfig) -> str:
    """Serialize the effective config; parsing the result reproduces it."""
    lines = ["# effective configuration"]
    if cfg.preset_name is not None:
        lines.append(f"# expanded from preset {cfg.preset_name}")
    for k in _FIELD_KEYS:
        section, _, leaf = k.key.partition(".")
        value = (getattr(cfg, leaf) if k.dbm
                 else getattr(getattr(cfg, section), k.target))
        if value is not None:
            lines.append(f"{k.key} = {_format_value(value)}")
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


def _outputs(cfg: ExperimentConfig) -> list[tuple[Path, str]]:
    """Run the experiment and render its results file and config echo."""
    rows = collect_rows(cfg)
    out_path = Path(cfg.run.output)
    text = (_render_csv(rows) if cfg.run.fmt is OutputFormat.CSV
            else _render_json(rows))
    return [(out_path, text),
            (Path(str(out_path) + ".config"), effective_config_text(cfg))]


def _write_files(files: list[tuple[Path, str]]) -> list[Path]:
    """Write each ``(path, text)`` atomically, and all of them or none.

    Each text goes to a temp file in its target's directory first; only when
    all are written is each moved into place with ``os.replace``. So no
    reader sees a half-written file, and a failed write leaves every target
    as it was, never a result without its echo.
    """
    temps = [path.with_name(f".{path.name}.{os.getpid()}.tmp")
             for path, _ in files]
    try:
        for tmp, (_, text) in zip(temps, files):
            tmp.write_text(text, encoding="utf-8")
        for tmp, (path, _) in zip(temps, files):
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
    return [path for path, _ in files]


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Execute the experiment and write results plus the config echo.

    Returns the written paths; raises OSError if the output is unwritable.
    """
    return _write_files(_outputs(cfg))


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
    overrides = {key: str(value) for key, value in (
        ("run.n_trials", n_trials), ("run.master_seed", master_seed),
        ("run.workers", workers)) if value is not None}
    if preset is Preset.FIG1:
        cases = {f"{name}_case_i.csv": {"system.loss_case": "CASE_I"},
                 f"{name}_case_ii.csv": {"system.loss_case": "CASE_II"}}
    else:
        cases = {f"{name}.csv": {}}

    files: list[tuple[Path, str]] = []
    for csv_name, case in cases.items():
        cfg = _resolve({"preset": preset.value},
                       {**overrides, **case,
                        "run.output": str(out_dir / csv_name)})
        files += _outputs(cfg)
    # The cases differ only in loss case and output, so any one of them
    # gives the schemes, axis and metric.
    stub = _plot_stub(list(cases), cfg.run.schemes, cfg.run.sweep_axis,
                      cfg.run.metric,
                      logscale=cfg.run.metric is MetricKind.OUTAGE)
    files.append((out_dir / f"{name}.gp", stub))
    return _write_files(files)


# --------------------------------------------------------------------------
# Command-line interface
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchsim",
        description="Outage and ergodic-rate experiments for pinching-antenna "
                    "systems under line-of-sight blockage.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment from a config file")
    sim.add_argument("config", help="path to a flat key-value config document")
    sim.add_argument("--trials", default=None,
                     help="override run.n_trials")
    sim.add_argument("--seed", default=None,
                     help="override run.master_seed")
    sim.add_argument("--workers", default=None,
                     help="override run.workers")
    sim.add_argument("--format", default=None,
                     help="override run.format (csv or json)")
    sim.add_argument("--out", default=None, help="override run.output")

    fig = sub.add_parser("figure", help="reproduce a bundled figure preset")
    fig.add_argument("figure_id",
                     help="one of " + ", ".join(p.value.lower() for p in Preset))
    fig.add_argument("--out", required=True, help="output directory")
    fig.add_argument("--trials", default=None)
    fig.add_argument("--seed", default=None)
    fig.add_argument("--workers", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            overrides = {key: value for key, value in (
                ("run.n_trials", args.trials), ("run.master_seed", args.seed),
                ("run.workers", args.workers), ("run.format", args.format),
                ("run.output", args.out)) if value is not None}
            text = Path(args.config).read_text(encoding="utf-8")
            paths = run_experiment(
                _resolve(_read_flat_document(text), overrides))
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

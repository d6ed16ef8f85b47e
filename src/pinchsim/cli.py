"""Config-driven experiment runner.

Experiments are described by a flat key-value document (``section.key =
value`` lines, ``#`` comments). Powers are given in dBm for ergonomics and
converted to watts exactly once at parse time. Named presets bundle the
deployment and sweep used by the reference figures; preset fields override
manual fields, and the fully expanded effective configuration is echoed next
to the results so every output is self-describing and re-parseable.

``counterparts`` is the one table of which analytic stands beside each
simulated row, and whether it is exact, a lower bound or an approximation.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .analytics import (
    OutageParams,
    ergodic_pin_two_user_highsnr,
    outage_conv_model_a_highsnr,
    outage_conv_model_b_highsnr,
    outage_pin_model_a,
    outage_pin_model_a_highsnr,
    outage_pin_model_b,
)
from .montecarlo import SweepAxis, sweep, sweep_inputs
from .scenario import (
    BlockageModel,
    LossCase,
    MetricKind,
    Scheme,
    SystemConfig,
    dbm_to_watt,
)

SCHEMA_VERSION = "pinchsim-results-v1"
CSV_COLUMNS = ("scheme", "axis_name", "axis_value", "metric", "value",
               "ci_half_width", "n_trials", "provenance", "seed")


class OutputFormat(Enum):
    CSV = "csv"
    JSON = "json"


class Provenance(Enum):
    """Where a row's value comes from: the simulator or an analytic."""

    SIMULATED = "SIMULATED"
    CLOSED_FORM = "CLOSED_FORM"


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
    fmt: OutputFormat
    r_target: float | None
    workers: int
    analytics: bool


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
    preset_name: str | None = field(compare=False)


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
    # The config echo strips each value and reads one key per line, so it
    # could not hold such a path.
    if raw != raw.strip() or raw.splitlines() != [raw]:
        raise ConfigError("expected a path without surrounding whitespace "
                          f"or line breaks, got {raw!r}")
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
# error. The two classes share no field name, and each RunSpec field has
# the name of the ``sweep`` parameter it feeds.
_FIELD_KEY = {k.target: k.key for k in _FIELD_KEYS}


def _fields(values: dict[str, object], section: str) -> dict[str, object]:
    """The SystemConfig (``system``) or RunSpec (``run``) fields of typed
    config values, with each dBm value in watts."""
    return {k.target: dbm_to_watt(values[k.key]) if k.dbm else values[k.key]
            for k in _FIELD_KEYS if k.key.startswith(section + ".")}


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


# The reference deployment every preset pins (fig1's). It restates schema
# defaults on purpose: a preset is frozen and must not move with a default.
_PRESET_BASE = {
    "system.num_users": 1, "system.d_w": 10.0, "system.d_l": 40.0,
    "system.height": 3.0, "system.carrier_freq_hz": 28e9,
    "system.noise_dbm": -90.0, "system.tx_power_dbm": 10.0,
    "system.blockage_model": BlockageModel.MODEL_A, "system.phi": 0.1,
    "system.loss_case": LossCase.CASE_I,
    "system.waveguide_loss_db_per_m": 0.08,
    "system.constrain_under_waveguide": False,
    "run.schemes": (Scheme.PIN_D2, Scheme.CONV),
    "run.metric": MetricKind.ERGODIC_SUM,
    "run.sweep_axis": SweepAxis.TX_POWER_DBM,
    "run.axis_values": (10.0, 20.0, 30.0, 40.0),
    "run.n_trials": 100000, "run.master_seed": 12345, "run.analytics": True,
}


def _fig2_default_r_target() -> float:
    """Target rate placing the distance threshold at twice the height in
    the reference deployment."""
    cfg = SystemConfig(**_fields(_PRESET_BASE, "system"))
    return math.log2(1.0 + cfg.path_gain_factor * cfg.tx_power
                     / (cfg.noise_power * (2.0 * cfg.height) ** 2))


_OUTAGE_OVER_D_L = {
    "system.loss_case": LossCase.CASE_II,
    "run.metric": MetricKind.OUTAGE,
    "run.sweep_axis": SweepAxis.D_L,
    "run.axis_values": (10.0, 20.0, 40.0, 80.0),
    "run.r_target": _fig2_default_r_target(),
    "run.n_trials": 200000,
}
# What each preset changes in the reference deployment.
_PRESET_ROWS = {
    Preset.FIG1: {},
    Preset.FIG2A: _OUTAGE_OVER_D_L,
    Preset.FIG2B: {**_OUTAGE_OVER_D_L, "system.d_w": 5.0,
                   "system.blockage_model": BlockageModel.MODEL_B},
    Preset.FIG3A: {"system.num_users": 2,
                   "run.schemes": (Scheme.PIN_D1, Scheme.PIN_D2, Scheme.CONV)},
    Preset.FIG3B: {"system.num_users": 5,
                   "run.schemes": (Scheme.PIN_D1, Scheme.PIN_D2, Scheme.CONV)},
    Preset.FIG4: {"system.num_users": 2,
                  "system.blockage_model": BlockageModel.MODEL_B,
                  "system.constrain_under_waveguide": True,
                  "run.metric": MetricKind.ERGODIC_PER_USER},
}


def preset_fields(preset: Preset) -> dict[str, object]:
    """Typed config fields a preset pins (preset fields beat manual ones)."""
    return {**_PRESET_BASE, **_PRESET_ROWS[preset],
            "run.output": f"{preset.value.lower()}.csv"}


def _build_config(values: dict[str, object],
                  preset_name: str | None) -> ExperimentConfig:
    for k in _KEYS:
        if values[k.key] is _REQUIRED:
            raise ConfigError(f"missing required config key: {k.key!r}")
    try:
        system = SystemConfig(**_fields(values, "system"))
        run = RunSpec(**_fields(values, "run"))
        sweep_inputs(system, run.sweep_axis, run.axis_values, run.metric,
                     run.n_trials, run.master_seed, r_target=run.r_target,
                     workers=run.workers)
    except ValueError as exc:
        # SystemConfig's and sweep_inputs' messages begin with the name of
        # the offending field or parameter.
        field_name, _, reason = str(exc).partition(" ")
        raise ConfigError(f"{_FIELD_KEY[field_name]}: {reason}") from None
    dbm = {k.key.partition(".")[2]: values[k.key] for k in _FIELD_KEYS if k.dbm}
    return ExperimentConfig(system=system, run=run, preset_name=preset_name,
                            **dbm)


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

def _metric_label(kind: MetricKind, index: int) -> str:
    """Label of a sweep point's ``index``-th estimate of metric ``kind``."""
    if kind is MetricKind.ERGODIC_PER_USER:
        return f"ERGODIC_USER_{index + 1}"
    return kind.value


class Kind(Enum):
    """What an analytic counterpart is to the quantity it stands beside."""

    EXACT = "EXACT"    # the same quantity by another route
    LOWER = "LOWER"    # a lower bound on it
    APPROX = "APPROX"  # an approximation that bounds it on no known side


def _floor(analytic, p: OutageParams, memo: dict) -> float:
    """``analytic(p)`` for a high-SNR outage floor, which does not depend
    on the target rate: evaluated once per (analytic, config) in ``memo``."""
    key = (analytic, p.cfg)
    if key not in memo:
        memo[key] = analytic(p)
    return memo[key]


def counterparts(scheme: Scheme, metric: MetricKind,
                 point: SystemConfig | OutageParams,
                 memo: dict) -> Iterator[tuple[Kind, float]]:
    """The analytic counterparts of a simulated sweep point's first
    estimate, as (kind, value) pairs: the one table of them.

    ``point`` is the point's estimator input from ``montecarlo.sweep_inputs``
    and ``memo`` a dict kept for one run (see ``_floor``). The first pair
    is the one ``collect_rows`` writes as the point's CLOSED_FORM row; a
    check of the simulation takes the tightest. Each value is evaluated
    when its pair is read, so a caller that takes the first evaluates only
    that.

    A high-SNR floor is a lower bound, as a finite SNR only adds outage.
    Waveguide loss (CASE_II) only lowers the pinching gains, so there an
    outage exact for a lossless waveguide is a lower bound. Every outage
    analytic spreads the user over its strip, so with users constrained
    to the waveguide's center line an outage has no counterpart. A value
    that is not finite raises ArithmeticError naming its analytic.
    """
    if metric is MetricKind.OUTAGE:
        cfg = point.cfg
        if cfg.num_users != 1 or cfg.constrain_under_waveguide:
            return
        model_a = cfg.blockage_model is BlockageModel.MODEL_A
        exact = Kind.EXACT if cfg.loss_case is LossCase.CASE_I else Kind.LOWER
        if scheme is Scheme.CONV:
            yield Kind.LOWER, _floor(
                outage_conv_model_a_highsnr if model_a
                else outage_conv_model_b_highsnr, point, memo)
        elif model_a:
            yield Kind.LOWER, _floor(outage_pin_model_a_highsnr, point, memo)
            yield exact, outage_pin_model_a(point)
        else:
            yield exact, outage_pin_model_b(point)
    elif (scheme is Scheme.PIN_D2 and point.num_users == 2
          and point.blockage_model is BlockageModel.MODEL_B
          and point.constrain_under_waveguide):
        rate = ergodic_pin_two_user_highsnr(point)
        if not math.isfinite(rate):
            raise ArithmeticError(f"ergodic_pin_two_user_highsnr produced "
                                  f"{rate}")
        # The two users are mirror images, so the sum is twice user 1's rate.
        yield Kind.APPROX, (2.0 * rate if metric is MetricKind.ERGODIC_SUM
                            else rate)


def collect_rows(cfg: ExperimentConfig) -> list[dict]:
    """Run the configured sweep and return output rows in a frozen order.

    All schemes are simulated together, one pass per sweep point; the rows
    still come scheme by scheme.
    """
    run = cfg.run
    rows: list[dict] = []
    memo: dict = {}
    inputs = sweep_inputs(cfg.system, run.sweep_axis, run.axis_values,
                          run.metric, run.n_trials, run.master_seed,
                          r_target=run.r_target, workers=run.workers)
    per_scheme = sweep(cfg.system, run.schemes, run.sweep_axis, run.axis_values,
                       run.metric, run.n_trials, run.master_seed,
                       r_target=run.r_target, workers=run.workers)
    for scheme, points in zip(run.schemes, per_scheme):
        for estimates, (axis_value, point_input) in zip(points, inputs):
            for idx, est in enumerate(estimates):
                rows.append(_row(scheme, run, axis_value, idx, est.value,
                                 est.ci_half_width, run.n_trials,
                                 Provenance.SIMULATED))
            first = (next(counterparts(scheme, run.metric, point_input,
                                       memo), None)
                     if run.analytics else None)
            if first is not None:
                rows.append(_row(scheme, run, axis_value, 0, first[1], 0.0, 0,
                                 Provenance.CLOSED_FORM))
    return rows


def _row(scheme: Scheme, run: RunSpec, axis_value: float, index: int,
         value: float, ci_half_width: float, n_trials: int,
         provenance: Provenance) -> dict:
    """The row of a sweep point's ``index``-th value of ``run.metric``."""
    return {
        "scheme": scheme.value,
        "axis_name": run.sweep_axis.value,
        "axis_value": axis_value,
        "metric": _metric_label(run.metric, index),
        "value": value,
        "ci_half_width": ci_half_width,
        "n_trials": n_trials,
        "provenance": provenance.value,
        "seed": run.master_seed,
    }


def _render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(f"# schema: {SCHEMA_VERSION}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        # csv writes a float as its repr, so every value round-trips.
        writer.writerow([row[c] for c in CSV_COLUMNS])
    return buf.getvalue()


def _render_json(rows: list[dict]) -> str:
    return json.dumps({"schema": SCHEMA_VERSION, "rows": rows}, indent=2) + "\n"


def _targets(cfg: ExperimentConfig) -> list[Path]:
    """The results file and its config echo."""
    out_path = Path(cfg.run.output)
    return [out_path, Path(f"{out_path}.config")]


def _check_targets(paths: list[Path]) -> None:
    """Fail on a target that is a directory: ``os.replace`` meets it midway."""
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, "Is a directory", str(path))


def _outputs(cfg: ExperimentConfig) -> list[tuple[Path, str]]:
    """Run the experiment and render its results file and config echo."""
    rows = collect_rows(cfg)
    text = (_render_csv(rows) if cfg.run.fmt is OutputFormat.CSV
            else _render_json(rows))
    return list(zip(_targets(cfg), (text, effective_config_text(cfg))))


def _write_files(files: list[tuple[Path, str]]) -> list[Path]:
    """Write each ``(path, text)`` atomically, and all of them or none.

    Each text goes to a temp file in its target's directory first; only when
    all are written is each moved into place with ``os.replace``. So no
    reader sees a half-written file, and a failed write leaves every target
    as it was, never a result without its echo. The targets are checked
    again here, as a directory may have appeared since the callers did.
    """
    _check_targets([path for path, _ in files])
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

    Returns the written paths; raises OSError if the output is unwritable
    (before any trial runs if a target is a directory).
    """
    _check_targets(_targets(cfg))
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


def _plot_stub(csv_names: list[str], run: RunSpec) -> str:
    lines = [
        "# gnuplot stub: value (column 5) vs axis_value (column 3),",
        "# one curve per scheme (column 1); CLOSED_FORM rows overlay as lines.",
        "set datafile separator ','",
        "set datafile commentschars '#'",
        f"set xlabel '{_AXIS_TITLES[run.sweep_axis]}'",
        f"set ylabel '{_METRIC_TITLES[run.metric]}'",
        "set key bottom right",
    ]
    if run.metric is MetricKind.OUTAGE:
        lines.append("set logscale y")
    plots = []
    for name in csv_names:
        for scheme in run.schemes:
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
    preset = (figure_id if isinstance(figure_id, Preset)
              else _parse("preset", str(figure_id)))
    out_dir = Path(output_dir)
    name = preset.value.lower()
    overrides = {key: str(value) for key, value in (
        ("run.n_trials", n_trials), ("run.master_seed", master_seed),
        ("run.workers", workers)) if value is not None}
    if preset is Preset.FIG1:
        cases = {f"{name}_case_i.csv": {"system.loss_case": "CASE_I"},
                 f"{name}_case_ii.csv": {"system.loss_case": "CASE_II"}}
    else:
        cases = {f"{name}.csv": {}}

    cfgs = [_resolve({"preset": preset.value},
                     {**overrides, **case,
                      "run.output": str(out_dir / csv_name)})
            for csv_name, case in cases.items()]
    stub_path = out_dir / f"{name}.gp"
    _check_targets([p for cfg in cfgs for p in _targets(cfg)] + [stub_path])
    files = [file for cfg in cfgs for file in _outputs(cfg)]
    # The cases differ only in loss case and output, so any one of them
    # gives the schemes, axis and metric.
    files.append((stub_path, _plot_stub(list(cases), cfgs[0].run)))
    # Made only now, so a figure that fails leaves no directory behind.
    out_dir.mkdir(parents=True, exist_ok=True)
    return _write_files(files)


# --------------------------------------------------------------------------
# Command-line interface
# --------------------------------------------------------------------------

# Flags that override one run key: (flag, key, help). Both subcommands take
# the first three; figure's own --out names a directory.
_OVERRIDE_FLAGS = (
    ("--trials", "run.n_trials", "override run.n_trials"),
    ("--seed", "run.master_seed", "override run.master_seed"),
    ("--workers", "run.workers", "override run.workers"),
    ("--format", "run.format", "override run.format (csv or json)"),
    ("--out", "run.output", "override run.output"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinchsim",
        description="Outage and ergodic-rate experiments for pinching-antenna "
                    "systems under line-of-sight blockage.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment from a config file")
    sim.add_argument("config", help="path to a flat key-value config document")

    fig = sub.add_parser("figure", help="reproduce a bundled figure preset")
    fig.add_argument("figure_id",
                     help="one of " + ", ".join(p.value.lower() for p in Preset))
    fig.add_argument("--out", required=True, help="output directory")
    for command, flags in ((sim, _OVERRIDE_FLAGS), (fig, _OVERRIDE_FLAGS[:3])):
        for flag, key, help_text in flags:
            command.add_argument(flag, dest=key, help=help_text)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    given = vars(args)
    try:
        if args.command == "simulate":
            overrides = {key: given[key] for _, key, _ in _OVERRIDE_FLAGS
                         if given[key] is not None}
            text = Path(args.config).read_text(encoding="utf-8")
            paths = run_experiment(
                _resolve(_read_flat_document(text), overrides))
        else:
            paths = reproduce_figure(args.figure_id, args.out,
                                     n_trials=given["run.n_trials"],
                                     master_seed=given["run.master_seed"],
                                     workers=given["run.workers"])
        for path in paths:
            print(path)
    except (OSError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    # ``python -m pinchsim.cli`` is not an entry point; say which ones are
    print("error: pinchsim.cli is not runnable; use `python -m pinchsim` "
          "or the `pinchsim` script", file=sys.stderr)
    sys.exit(2)

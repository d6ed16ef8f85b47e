"""Inputs, passes and correctness checks of the pinchsim benchmark workloads.

Every workload is generated from the benchmark seed as flat config documents
(plus, for ``analytics_grid``, a parameter grid). The library is driven only
through ``pinchsim.cli.parse_config`` + ``run_experiment`` and the public
``pinchsim.analytics`` functions. One *pass* runs every generated input once;
all timings and per-layer numbers are per pass.

An operation is one estimate or one closed-form row (Monte-Carlo workloads)
or one evaluation (``analytics_grid``). It fails if it raises, is missing,
is non-finite or out of range, or fails a workload check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

import pinchsim.analytics as analytics
from pinchsim.cli import parse_config, run_experiment

WORKLOADS = ("zf_multiuser", "dense_d2", "outage_sweep", "analytics_grid")

# Trial budgets are whole multiples of the library's fixed 8192-trial stream
# chunk, so per-chunk costs show as they would in a full-size run.
CHUNK_TRIALS = 8192

# Two-sided checks against a reference use 6 sigma: with at most a few
# hundred checked estimates per run the chance of a false failure stays
# below 1e-6. (A 3-sigma test over ~50 outage points fails ~13% of runs.)
Z_CHECK = 6.0

POWERS_DBM = (10.0, 20.0, 30.0, 40.0)

# R_TARGET regime edges at 10 dBm, -90 dBm noise, 28 GHz, height 3 m. The
# distance threshold tau1 = sqrt(g P / ((2^r - 1) sigma^2)) falls below the
# height (certain outage) above r = 9.6575, and leaves the strip (clamped
# threshold, outage = blockage mass) below r = 7.7449 for d_w = 10 m and
# below r = 8.8979 for d_w = 5 m.
R_CERTAIN = 9.6575
R_CLAMPED = {10.0: 7.7449, 5.0: 8.8979}

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Public analytic functions by cost class: erf closed forms, 1-D MODEL_A
# strip quadrature, 2-D conventional-area quadrature.
ANALYTIC_CLASS = {
    "outage_pin_model_a": "quad_1d",
    "outage_pin_model_a_highsnr": "quad_1d",
    "outage_conv_model_a_highsnr": "quad_2d",
    "outage_pin_model_b": "closed_form",
    "outage_pin_model_b_highsnr": "closed_form",
    "outage_conv_model_b_highsnr": "closed_form",
    "outage_gap_model_b": "closed_form",
    "ergodic_pin_two_user_highsnr": "closed_form",
}


def _format(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _document(system: dict, run: dict) -> str:
    lines = [f"system.{k} = {_format(v)}" for k, v in system.items()]
    lines += [f"run.{k} = {_format(v)}" for k, v in run.items()]
    return "\n".join(lines) + "\n"


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform point in each of ``n`` equal cells of [lo, hi], ascending.

    Stratifying keeps the mix of regimes, and so the cost of a pass, nearly
    identical across seeds while the points themselves change.
    """
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


def _master_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def read_rows(text: str) -> list[dict]:
    """Rows of a pinchsim-results-v1 CSV document."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# schema:"):
        raise ValueError("results file lacks the schema line")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


# --------------------------------------------------------------------------
# Monte-Carlo workloads
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class McInput:
    """One experiment document of a Monte-Carlo workload."""

    name: str
    system: dict
    run: dict

    def document(self, output: Path, **run_overrides) -> str:
        run = {**self.run, **run_overrides, "output": str(output)}
        return _document(self.system, run)

    @property
    def schemes(self) -> list[str]:
        return [s.strip() for s in self.run["schemes"].split(",")]

    def expected_rows(self, axis_values=None) -> int:
        points = len(axis_values or self.run["axis_values"])
        per_point = 1
        if self.run["metric"] == "ERGODIC_PER_USER":
            per_point = self.system["num_users"]
        if self.run["metric"] == "OUTAGE":
            per_point = 2  # simulated row plus its closed-form row (M = 1)
        return len(self.schemes) * points * per_point

    @property
    def trials(self) -> int:
        return len(self.schemes) * len(self.run["axis_values"]) * self.run["n_trials"]


def _zf_multiuser(rng: random.Random) -> tuple[McInput, ...]:
    # FIG3B system: Design I zero forcing on 5x5 channels dominates.
    return (McInput(
        name="fig3b",
        system=dict(num_users=5, d_w=10.0, d_l=40.0, tx_power_dbm=10.0,
                    blockage_model="MODEL_A", phi=0.1, loss_case="CASE_I"),
        run=dict(schemes="PIN_D1, PIN_D2, CONV", metric="ERGODIC_SUM",
                 sweep_axis="TX_POWER_DBM", axis_values=POWERS_DBM,
                 n_trials=2 * CHUNK_TRIALS, master_seed=_master_seed(rng),
                 workers=1)),)


def _dense_d2(rng: random.Random) -> tuple[McInput, ...]:
    # 16 waveguides: (8192, 16, 16) float64 temporaries, no zero forcing.
    return (McInput(
        name="dense",
        system=dict(num_users=16, d_w=10.0, d_l=40.0, tx_power_dbm=10.0,
                    blockage_model="MODEL_B", phi=0.1, loss_case="CASE_II"),
        run=dict(schemes="PIN_D2, CONV", metric="ERGODIC_PER_USER",
                 sweep_axis="TX_POWER_DBM", axis_values=POWERS_DBM,
                 n_trials=2 * CHUNK_TRIALS, master_seed=_master_seed(rng),
                 workers=1)),)


def _r_grid(rng: random.Random, d_w: float) -> tuple[float, ...]:
    """48 targets: 16 clamped, 24 in-strip, 8 certain-outage."""
    edge = R_CLAMPED[d_w]
    return tuple(_stratified(rng, edge - 2.0, edge, 16)
                 + _stratified(rng, edge, R_CERTAIN, 24)
                 + _stratified(rng, R_CERTAIN, 11.0, 8))


def _outage_sweep(rng: random.Random) -> tuple[McInput, ...]:
    # M = 1 trials cost ~60 ns, so per-chunk and per-point overheads show.
    run = dict(schemes="PIN_D2, CONV", metric="OUTAGE", sweep_axis="R_TARGET",
               n_trials=4 * CHUNK_TRIALS, workers=1, analytics="true")
    return (
        McInput(name="model_a",  # FIG2A-like; analytic rows are high-SNR floors
                system=dict(num_users=1, d_w=10.0, d_l=40.0, tx_power_dbm=10.0,
                            blockage_model="MODEL_A", phi=0.1,
                            loss_case="CASE_II"),
                run={**run, "axis_values": _r_grid(rng, 10.0),
                     "master_seed": _master_seed(rng)}),
        McInput(name="model_b",  # exact closed form for PIN_D2
                system=dict(num_users=1, d_w=5.0, d_l=40.0, tx_power_dbm=10.0,
                            blockage_model="MODEL_B", phi=0.1,
                            loss_case="CASE_I"),
                run={**run, "axis_values": _r_grid(rng, 5.0),
                     "master_seed": _master_seed(rng)}),
    )


MC_INPUTS = {"zf_multiuser": _zf_multiuser, "dense_d2": _dense_d2,
             "outage_sweep": _outage_sweep}

# Half-width the time-to-accuracy metric scales each sweep to, in the unit
# of the workload's metric (bits/s/Hz or probability).
TARGET_CI = {"zf_multiuser": 0.1, "dense_d2": 0.05, "outage_sweep": 0.001}

# Axis points kept by the untimed determinism slice (None keeps all).
CHECK_POINTS = {"zf_multiuser": 2, "dense_d2": 2, "outage_sweep": None}


def mc_inputs(workload: str, seed: int) -> tuple[McInput, ...]:
    return MC_INPUTS[workload](random.Random(f"{workload}:{seed}"))


def load_reference(workload: str) -> dict:
    """Seed-independent reference estimates keyed (input, scheme, axis, metric)."""
    data = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    if workload not in data:
        return {}
    return {(r["input"], r["scheme"], r["axis_value"], r["metric"]):
            (r["value"], r["ci_half_width"])
            for r in data[workload]["rows"]}


def _exact_outage(inp: McInput, scheme: str) -> bool:
    """The closed-form row is the exact outage, not a high-SNR floor."""
    return (scheme != "CONV" and inp.system["blockage_model"] == "MODEL_B"
            and inp.system["loss_case"] == "CASE_I")


def check_mc_rows(inp: McInput, rows: list[dict], reference: dict) -> list[str]:
    """Failure messages for one results file, at most one per operation."""
    failures = []
    expected = inp.expected_rows()
    if len(rows) != expected:
        failures += ([f"{inp.name}: {expected} rows expected, got {len(rows)}"]
                     * max(expected - len(rows), 1))
    closed = {(r["scheme"], r["axis_value"]): float(r["value"])
              for r in rows if r["provenance"] == "CLOSED_FORM"}
    for r in rows:
        where = f"{inp.name} {r['scheme']} {r['metric']} @ {r['axis_value']}"
        value, ci = float(r["value"]), float(r["ci_half_width"])
        n = int(r["n_trials"])
        if not (math.isfinite(value) and math.isfinite(ci)) or ci < 0:
            failures.append(f"{where}: non-finite value or CI")
            continue
        outage = r["metric"] == "OUTAGE"
        if (outage and not 0.0 <= value <= 1.0) or value < 0.0:
            failures.append(f"{where}: value {value} out of range")
            continue
        if r["provenance"] != "SIMULATED":
            continue
        if n != inp.run["n_trials"]:
            failures.append(f"{where}: n_trials {n}")
        elif outage and (r["scheme"], r["axis_value"]) in closed:
            p = closed[(r["scheme"], r["axis_value"])]
            # Binomial sigma at the analytic value plus one trial of slack;
            # at a degenerate point (p in {0, 1}) the estimate must match.
            tol = Z_CHECK * math.sqrt(p * (1.0 - p) / n) + 1.0 / n
            exact = _exact_outage(inp, r["scheme"])
            if value < p - tol or (exact and value > p + tol):
                kind = "exact outage" if exact else "high-SNR floor"
                failures.append(f"{where}: {value} vs {kind} {p} (tol {tol:.3g})")
        elif not outage:
            key = (inp.name, r["scheme"], r["axis_value"], r["metric"])
            if key not in reference:
                failures.append(f"{where}: no reference value")
                continue
            ref, ref_ci = reference[key]
            # CIs are 3-sigma half-widths, so 2 * hypot(ci, ref_ci) is 6 sigma.
            tol = (Z_CHECK / 3.0) * math.hypot(ci, ref_ci)
            if abs(value - ref) > tol:
                failures.append(f"{where}: {value} vs reference {ref} (tol {tol:.3g})")
    return failures


class McBench:
    """A Monte-Carlo workload: ``run_experiment`` on each generated document."""

    analytic = False

    def __init__(self, workload: str, seed: int, work_dir: Path, tracer=None):
        self.workload = workload
        self.work_dir = work_dir
        self.inputs = mc_inputs(workload, seed)
        self.outputs = [work_dir / f"{inp.name}.csv" for inp in self.inputs]
        call = tracer.call if tracer else (lambda name, fn, *a: fn(*a))
        self.configs = [call("cli.parse_config", parse_config, inp.document(out))
                        for inp, out in zip(self.inputs, self.outputs)]
        self.ops_per_pass = sum(inp.expected_rows() for inp in self.inputs)
        self.trials_per_pass = sum(inp.trials for inp in self.inputs)
        self._first: dict[int, tuple[str, list[str], list[dict]]] = {}

    def budgets(self) -> dict:
        return {inp.name: {k: inp.run[k] for k in ("n_trials", "master_seed")}
                for inp in self.inputs}

    def run_pass(self, tracer=None) -> list:
        """One ``run_experiment`` per document; exceptions are results too."""
        results = []
        for cfg in self.configs:
            try:
                if tracer is None:
                    run_experiment(cfg)
                else:
                    tracer.call("cli.run_experiment", run_experiment, cfg)
                results.append(None)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                results.append(exc)
        return results

    def check_pass(self, results: list) -> tuple[int, list[str]]:
        """(attempted, failures) for one pass; reruns must be byte-identical."""
        failures: list[str] = []
        for i, (inp, out, exc) in enumerate(zip(self.inputs, self.outputs, results)):
            expected = inp.expected_rows()
            if exc is not None:
                failures += [f"{inp.name}: {type(exc).__name__}: {exc}"] * expected
                continue
            text = out.read_text(encoding="utf-8")
            if i not in self._first:
                try:
                    rows = read_rows(text)
                    checked = check_mc_rows(inp, rows, load_reference(self.workload))
                except (KeyError, TypeError, ValueError) as exc:
                    rows, checked = [], [f"{inp.name}: unreadable results: {exc}"] * expected
                self._first[i] = (text, checked, rows)
            first_text, first_failures, _ = self._first[i]
            if text != first_text:
                failures += [f"{inp.name}: rerun output differs"] * expected
            else:
                failures += first_failures
        return self.ops_per_pass, failures

    def accuracy_factor(self) -> float:
        """(largest simulated CI half-width / target half-width) squared."""
        widest = max((float(r["ci_half_width"])
                      for _, _, rows in self._first.values() for r in rows
                      if r["provenance"] == "SIMULATED"), default=0.0)
        return (widest / TARGET_CI[self.workload]) ** 2

    def untimed_checks(self) -> tuple[int, list[str]]:
        """Determinism across worker counts and the sum-rate identity."""
        attempted, failures = 0, []
        for inp in self.inputs:
            axis = inp.run["axis_values"][:CHECK_POINTS[self.workload]]
            slice_run = dict(axis_values=axis, n_trials=3 * CHUNK_TRIALS)
            try:
                texts = {w: self._run_slice(inp, f"w{w}", workers=w, **slice_run)
                         for w in (1, 2)}
                lines = {w: texts[w].splitlines() for w in texts}
                n = len(lines[1])
                differing = sum(a != b for a, b in zip(lines[1], lines[2]))
                differing += abs(len(lines[1]) - len(lines[2]))
                msgs = [f"{inp.name}: workers=1 and workers=2 differ"] * differing
                if inp.run["metric"] != "OUTAGE":
                    n_sum, sum_msgs = self._sum_identity(inp, texts[1], slice_run)
                    n, msgs = n + n_sum, msgs + sum_msgs
            except Exception as exc:  # noqa: BLE001 - a failed operation
                n = inp.expected_rows(axis)
                msgs = [f"{inp.name} slice: {type(exc).__name__}: {exc}"] * n
            attempted += n
            failures += msgs
        return attempted, failures

    def _run_slice(self, inp: McInput, tag: str, **run_overrides) -> str:
        out = self.work_dir / f"check-{inp.name}-{tag}.csv"
        run_experiment(parse_config(inp.document(out, **run_overrides)))
        return out.read_text(encoding="utf-8")

    def _sum_identity(self, inp: McInput, text: str,
                      slice_run: dict) -> tuple[int, list[str]]:
        """ERGODIC_SUM must equal the sum of the per-user means."""
        metric = inp.run["metric"]
        other = "ERGODIC_PER_USER" if metric == "ERGODIC_SUM" else "ERGODIC_SUM"
        other_text = self._run_slice(inp, "other", metric=other, workers=1,
                                     **slice_run)
        per_user: dict[tuple[str, str], list[float]] = defaultdict(list)
        totals: dict[tuple[str, str], float] = {}
        for r in read_rows(text) + read_rows(other_text):
            key = (r["scheme"], r["axis_value"])
            if r["metric"] == "ERGODIC_SUM":
                totals[key] = float(r["value"])
            else:
                per_user[key].append(float(r["value"]))
        if not totals:
            return 1, [f"{inp.name}: no ERGODIC_SUM rows"]
        failures = []
        for key, total in totals.items():
            summed = math.fsum(per_user.get(key, [math.nan]))
            if not abs(summed - total) <= 1e-9 * max(1.0, abs(total)):
                failures.append(f"{inp.name} {key}: sum {total} != "
                                f"sum of per-user means {summed}")
        return len(totals), failures


# --------------------------------------------------------------------------
# Analytic workload
# --------------------------------------------------------------------------

# Grid strata: 4 x 4 x 4 (d_l, d_w, phi) cells per blockage model, 8 rate
# targets per system over [6.5, 10.5] bits/s/Hz (all three threshold regimes).
D_L_RANGE, D_W_RANGE, PHI_RANGE, R_RANGE = (10.0, 80.0), (2.0, 12.0), (0.02, 0.3), (6.5, 10.5)
CELLS, N_TARGETS = 4, 8


@dataclass(frozen=True)
class Evaluation:
    """One call of a public analytic function in a pass."""

    function: str
    arg: object
    system: int            # index of the (model, d_l, d_w, phi) system
    r_target: float | None


def analytic_documents(seed: int) -> list[tuple[int, str]]:
    """(system index, document) pairs of the analytic grid."""
    rng = random.Random(f"analytics_grid:{seed}")
    docs = []
    for m, model in enumerate(("MODEL_A", "MODEL_B")):
        for i in range(CELLS ** 3):
            index = m * CELLS ** 3 + i
            cell = (i // CELLS ** 2, (i // CELLS) % CELLS, i % CELLS)
            d_l, d_w, phi = (lo + (c + rng.random()) * (hi - lo) / CELLS
                             for c, (lo, hi) in zip(cell, (D_L_RANGE, D_W_RANGE,
                                                           PHI_RANGE)))
            system = dict(num_users=1, d_w=d_w, d_l=d_l, tx_power_dbm=10.0,
                          blockage_model=model, phi=phi)
            targets = tuple(_stratified(rng, *R_RANGE, N_TARGETS))
            run = dict(schemes="PIN_D2, CONV", metric="OUTAGE",
                       sweep_axis="R_TARGET", axis_values=targets, n_trials=1,
                       master_seed=_master_seed(rng), output="unused.csv")
            docs.append((index, _document(system, run)))
            if model == "MODEL_B":
                # The two-user ergodic approximation: users under waveguides.
                two = {**system, "num_users": 2, "constrain_under_waveguide": True}
                two_run = {**run, "metric": "ERGODIC_PER_USER",
                           "sweep_axis": "TX_POWER_DBM", "axis_values": (10.0,)}
                docs.append((index, _document(two, two_run)))
    return docs


class AnalyticBench:
    """Every public outage/ergodic analytic over a generated parameter grid.

    Functions of ``r_target`` run at each of a system's targets; the others
    once per system.
    """

    analytic = True
    trials_per_pass = 0

    def __init__(self, seed: int, tracer=None):
        call = tracer.call if tracer else (lambda name, fn, *a: fn(*a))
        self.evaluations: list[Evaluation] = []
        for system, doc in analytic_documents(seed):
            self._add_system(system, call("cli.parse_config", parse_config, doc))
        self.ops_per_pass = len(self.evaluations)
        self._first: tuple[list, list[str]] | None = None

    def _add_system(self, system: int, experiment) -> None:
        cfg = experiment.system
        add = self.evaluations.append
        if cfg.num_users == 2:
            add(Evaluation("ergodic_pin_two_user_highsnr", cfg, system, None))
            return
        if cfg.blockage_model.value == "MODEL_A":
            per_target = ["outage_pin_model_a"]
            once = ["outage_pin_model_a_highsnr", "outage_conv_model_a_highsnr"]
        else:
            per_target = ["outage_pin_model_b"]
            once = ["outage_pin_model_b_highsnr", "outage_conv_model_b_highsnr",
                    "outage_gap_model_b"]
        targets = experiment.run.axis_values
        params = [analytics.OutageParams(cfg=cfg, r_target=r) for r in targets]
        for name in per_target:
            for r, p in zip(targets, params):
                add(Evaluation(name, p, system, r))
        for name in once:
            add(Evaluation(name, params[0], system, None))

    def budgets(self) -> dict:
        return {"evaluations_per_pass": self.ops_per_pass}

    def run_pass(self, tracer=None) -> tuple[list, list[int]]:
        """(values, latencies in ns); a raised exception stands as the value."""
        values, latencies = [], []
        for ev in self.evaluations:
            fn = getattr(analytics, ev.function, None)
            start = perf_counter_ns()
            try:
                if fn is None:
                    raise AttributeError(f"pinchsim.analytics.{ev.function} is gone")
                if tracer is None:
                    value = fn(ev.arg)
                else:
                    value = tracer.call("analytics." + ANALYTIC_CLASS[ev.function],
                                        fn, ev.arg)
            except Exception as exc:  # noqa: BLE001 - a failed operation
                value = exc
            latencies.append(perf_counter_ns() - start)
            values.append(value)
        return values, latencies

    def check_pass(self, result) -> tuple[int, list[str]]:
        values, _ = result
        if self._first is None:
            self._first = (values, self._check(values))
        first_values, first_failures = self._first
        if values == first_values:
            return self.ops_per_pass, first_failures
        differing = sum(a != b for a, b in zip(values, first_values))
        return self.ops_per_pass, (self._check(values)
                                   + ["rerun value differs"] * differing)

    def accuracy_factor(self) -> float:
        return 1.0  # analytic values carry no sampling error

    def _check(self, values: list) -> list[str]:
        failures = []
        by_system: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        for ev, value in zip(self.evaluations, values):
            where = f"{ev.function}[system {ev.system}, r={ev.r_target}]"
            if isinstance(value, Exception):
                failures.append(f"{where}: {type(value).__name__}: {value}")
                continue
            if not math.isfinite(value) or value < 0.0 or (
                    ev.function.startswith("outage") and value > 1.0):
                failures.append(f"{where}: {value} out of range")
                continue
            by_system[ev.system][ev.function].append(value)
        for system, fns in by_system.items():
            for name in ("outage_pin_model_a", "outage_pin_model_b"):
                seq = fns.get(name, [])
                failures += [f"{name}[system {system}]: decreases in r_target"
                             for a, b in zip(seq, seq[1:]) if b < a - 1e-12]
            if "outage_gap_model_b" in fns:
                gap = fns["outage_gap_model_b"][0]
                conv = fns.get("outage_conv_model_b_highsnr", [math.nan])[0]
                pin = fns.get("outage_pin_model_b_highsnr", [math.nan])[0]
                if not abs(gap - (conv - pin)) <= 1e-12:
                    failures.append(f"outage_gap_model_b[system {system}]: {gap} "
                                    f"!= conv - pin = {conv - pin}")
        return failures

    def untimed_checks(self) -> tuple[int, list[str]]:
        return 0, []

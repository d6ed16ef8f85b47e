"""pinchsim benchmark: one workload per process, correctness-gated.

Usage (from the repository root):

    python3 perfbench/run.py --workload zf_multiuser --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload with tracing off and prints the end-to-end
metrics; ``--trace 1`` alternates plain and traced passes and prints the
per-layer metrics. Metric names and units come from ``BENCHMARK.json``. The
last line of standard output is the JSON result; the lines before it give
provenance, every metric with its unit, and the outcome of each check.
See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = Path(__file__).resolve().parent / "_work"

# Every BLAS/OpenMP pool is pinned to one thread, here and in child processes.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Machine-speed calibration. On a shared 2-CPU box the effective CPU speed
# drifts by 15-40% over 5-15 s windows; process CPU time tracks wall time, so
# it is not steal time. A fixed calibration kernel timed between passes
# drifts with it. Each workload uses the kernel that tracked its hot path
# best in interleaved trials: window-to-window ranges of 1.4-7.6% against
# 14-27% raw. Times are reported in *normalized seconds*, wall seconds x
# reference / calibration time: seconds on a machine where the kernel takes
# its reference time (one core of the 2-core Xeon the bounds were set on).
CALIBRATION_KERNEL = {"zf_multiuser": "linalg", "dense_d2": "mix",
                      "outage_sweep": "streams", "analytics_grid": "callbacks"}
CALIBRATION_REFERENCE_NS = {"mix": 25_000_000, "linalg": 12_000_000,
                            "streams": 10_000_000, "callbacks": 10_000_000}

SETUP_PROBES = 5        # fresh processes timed for setup_s (after one warm-up)
PARSE_BUILDS = 7        # input builds timed for cli.parse_config_s
MIN_PASSES = 3          # timed passes per run, even past --seconds

# Library names re-bound at their call sites in traced passes:
# (module, attribute, span name, counter of work units or None).
CALL_SITE_SPANS = (
    ("pinchsim.cli", "sweep", "montecarlo.sweep", None),
    ("pinchsim.montecarlo", "estimate_outage", "montecarlo.estimate", None),
    ("pinchsim.montecarlo", "estimate_ergodic", "montecarlo.estimate", None),
    ("pinchsim.montecarlo", "chunk_generator", "montecarlo.chunk_generator", None),
    ("pinchsim.montecarlo", "zf_gains_batch", "transceiver.zf_gains_batch",
     lambda args, result: {"matrices": result[1].size,
                           "ok": int(result[1].sum())}),
    ("pinchsim.montecarlo", "design2_rates_from_power",
     "transceiver.design2_rates_from_power",
     lambda args, result: {"rows": math.prod(args[0].shape[:-2])}),
    ("pinchsim.montecarlo", "unblocked_probability_sq",
     "channel.unblocked_probability_sq",
     lambda args, result: {"links": args[0].size}),
    ("pinchsim.montecarlo", "waveguide_y_offsets", "scenario.waveguide_y_offsets",
     None),
)
# Analytic functions the CLI calls for its closed-form rows.
CLI_ANALYTICS = ("outage_pin_model_b", "outage_pin_model_a_highsnr",
                 "outage_conv_model_a_highsnr", "outage_conv_model_b_highsnr",
                 "ergodic_pin_two_user_highsnr")


class Calibration:
    """Times one fixed calibration kernel; see CALIBRATION_KERNEL.

    - ``mix``: interpreted calls, small-array numpy dispatch, a sort and an
      in-place ``exp`` over 8 MB arrays;
    - ``linalg``: batched 5x5 complex SVD and inverse, complex ``exp``;
    - ``streams``: Philox streams created per 8192 draws, as in a chunk;
    - ``callbacks``: a Python-level integration loop over ``math`` calls.

    Buffers are allocated once and used in place, so their size
    (``nbytes``) can be subtracted from the peak RSS of the process.
    """

    def __init__(self, kind: str = "mix") -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self.kind = kind
        self.reference_ns = CALIBRATION_REFERENCE_NS[kind]
        self._kernel = getattr(self, "_" + kind)
        shapes = {"mix": {"small": (64,), "sort_src": (200_000,),
                          "a": (1 << 20,), "b": (1 << 20,)},
                  "linalg": {"re": (1024, 5, 5), "im": (1024, 5, 5),
                             "phase": (1024, 5, 5)},
                  "streams": {}, "callbacks": {}}[kind]
        self._buf = {name: rng.random(shape) for name, shape in shapes.items()}
        if kind == "mix":
            self._buf["sort_buf"] = np.empty(200_000)
            self._buf["t"] = np.empty(1 << 20)
        if kind == "linalg":
            self._buf["h"] = self._buf["re"] + 1j * self._buf["im"]
        self.nbytes = sum(x.nbytes for x in self._buf.values())

    def _mix(self) -> None:
        np, buf = self._np, self._buf
        acc = 0.0
        for i in range(15_000):
            acc += math.exp(-math.sqrt(i * 1e-3))
        x = buf["small"]
        for _ in range(1_500):
            x = np.sqrt(x * x + 1.0) - 0.5
        buf["sort_buf"][:] = buf["sort_src"]
        buf["sort_buf"].sort()
        for _ in range(2):
            np.multiply(buf["a"], buf["b"], out=buf["t"])
            np.exp(buf["t"], out=buf["t"])
            buf["t"].sum()

    def _linalg(self) -> None:
        np, h = self._np, self._buf["h"]
        np.linalg.svd(h, compute_uv=False)
        np.linalg.inv(h @ np.conj(np.swapaxes(h, -1, -2)))
        np.exp(1j * self._buf["phase"])

    def _streams(self) -> None:
        np = self._np
        for k in range(32):
            gen = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(1, spawn_key=(0, k))))
            x, y = gen.uniform(-1.0, 1.0, 8192), gen.random(8192)
            np.count_nonzero(np.exp(-np.sqrt(x * x + 9.0)) > y)

    def _callbacks(self) -> None:
        acc = 0.0
        for i in range(1, 30_000):
            acc += math.exp(-0.1 * math.sqrt((i * 1e-3) ** 2 + 9.0))

    def __call__(self) -> int:
        start = time.perf_counter_ns()
        self._kernel()
        return time.perf_counter_ns() - start

    def speed(self, repeats: int = 3) -> float:
        """Reference / median calibration time: >1 on a fast machine."""
        return self.reference_ns / statistics.median(self() for _ in range(repeats))


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _make_bench(workloads, name: str, seed: int, work_dir: Path, tracer=None):
    if name == "analytics_grid":
        return workloads.AnalyticBench(seed, tracer)
    return workloads.McBench(name, seed, work_dir, tracer)


def _setup_probe(args) -> int:
    """Child process: time ``import pinchsim`` plus building the inputs."""
    start = time.perf_counter()
    import workloads  # imports pinchsim, numpy and the rest of the stack
    _make_bench(workloads, args.workload, args.seed, WORK_ROOT / "probe")
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s, "speed": Calibration().speed()}))
    return 0


def _measure_setup(args) -> tuple[list[float], list[float]]:
    """(raw, normalized) set-up seconds of fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    raw, normalized = [], []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        if i:  # the first probe warms the file cache and writes bytecode
            probe = json.loads(proc.stdout.splitlines()[-1])
            raw.append(probe["setup_s"])
            normalized.append(probe["setup_s"] * probe["speed"])
    return raw, normalized


def _provenance(args, bench) -> dict:
    np = sys.modules["numpy"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = {}
    for mod in ("numpy", "scipy"):
        if mod in sys.modules:  # scipy only if the library itself imported it
            dep = sys.modules[mod].show_config(mode="dicts")["Build Dependencies"]
            blas[mod] = f"{dep['blas']['name']} {dep['blas']['version']}"
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pinchsim").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": getattr(sys.modules.get("scipy"), "__version__", None),
        "blas": blas, "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha, "source_sha256": digest.hexdigest(),
        "budgets": bench.budgets(),
    }


@dataclass
class Passes:
    """Timed passes of one run; times are normalized seconds per pass."""

    plain: list[float] = field(default_factory=list)
    traced: list[float] = field(default_factory=list)
    raw_plain: list[float] = field(default_factory=list)
    traced_speed: list[float] = field(default_factory=list)
    latency_quantiles: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def _timed_passes(bench, seconds: float, calibration: Calibration,
                  traced_pass=None) -> Passes:
    """Run passes until ``seconds`` pass; alternate with traced ones if given.

    A calibration runs between passes; each pass is normalized by the mean of
    the calibrations before and after it. Checks run outside the timings.
    """
    out = Passes()
    before = calibration()
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(out.plain) < MIN_PASSES
           or (traced_pass and len(out.traced) < MIN_PASSES)):
        trace_now = traced_pass is not None and len(out.traced) < len(out.plain)
        start = time.perf_counter_ns()
        result = traced_pass() if trace_now else bench.run_pass()
        wall = (time.perf_counter_ns() - start) / 1e9
        after = calibration()
        speed = 2 * calibration.reference_ns / (before + after)
        before = after
        if trace_now:
            out.traced.append(wall * speed)
            out.traced_speed.append(speed)
        else:
            out.plain.append(wall * speed)
            out.raw_plain.append(wall)
            if bench.analytic:  # per-pass p50 and p90 of the evaluation latency
                deciles = statistics.quantiles(result[1], n=10)
                out.latency_quantiles.append((deciles[4], deciles[8]))
        n, msgs = bench.check_pass(result)
        out.attempted += n
        out.failures += msgs
    return out


def _end_to_end(args, bench) -> tuple[dict, int, list[str], list[str]]:
    raw_setup, setup = _measure_setup(args)
    calibration = Calibration(CALIBRATION_KERNEL[args.workload])
    passes = _timed_passes(bench, args.seconds, calibration)
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                   - calibration.nbytes) / 2 ** 20
    pass_s = statistics.median(passes.plain)
    raw_pass_s = statistics.median(passes.raw_plain)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": bench.ops_per_pass / pass_s,
        "time_to_accuracy_s": pass_s * bench.accuracy_factor(),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [f"passes {len(passes.plain)}; median pass {pass_s:.6g} normalized s, "
             f"{raw_pass_s:.6g} wall s",
             f"setup probes (wall s): {', '.join(f'{t:.4f}' for t in raw_setup)}; "
             f"median {statistics.median(raw_setup):.6g} wall s"]
    notes.append("normalized pass s: "
                 + " ".join(f"{t:.4g}" for t in passes.plain))
    if bench.analytic:
        p50, p90 = (statistics.median(q) / 1e3
                    for q in zip(*passes.latency_quantiles))
        notes += [f"analytic_evals_per_s = {values['ops_per_s']:.6g} evals/s",
                  f"analytic_eval_us_p50 = {p50:.6g} us, analytic_eval_us_p90 = "
                  f"{p90:.6g} us (wall; medians over passes of per-pass "
                  f"percentiles of {bench.ops_per_pass} evaluations each)"]
    else:
        notes += [f"trials_per_s = {bench.trials_per_pass / pass_s:.6g} trials/s "
                  f"({bench.trials_per_pass / raw_pass_s:.6g} per wall s)"]
    return values, passes.attempted, passes.failures, notes


def _build_traced(workloads, args, work_dir):
    """Build the inputs several times; return the bench and parse seconds."""
    from spans import Tracer

    parse_s = []
    for _ in range(PARSE_BUILDS):
        tracer = Tracer()
        bench = _make_bench(workloads, args.workload, args.seed, work_dir, tracer)
        parse_s.append(sum(end - start for *_, start, end in tracer.spans) / 1e9)
    return bench, statistics.median(parse_s) * Calibration().speed()


def _traced_pass(tracer, bench, workloads):
    """A pass with the library's call sites re-bound to traced wrappers."""
    import pinchsim.analytics
    import pinchsim.cli
    import pinchsim.montecarlo

    modules = {"pinchsim.cli": pinchsim.cli,
               "pinchsim.montecarlo": pinchsim.montecarlo}

    def run():
        for module, attr, name, counter in CALL_SITE_SPANS:
            tracer.patch(modules[module], attr, name, counter)
        for attr in CLI_ANALYTICS:
            tracer.patch(pinchsim.cli, attr,
                         "analytics." + workloads.ANALYTIC_CLASS[attr])
        tracer.patch(pinchsim.analytics, "quad", "analytics.quad", span=False)
        try:
            start = time.perf_counter_ns()
            result = bench.run_pass(tracer)
            run.wall_ns += time.perf_counter_ns() - start
        finally:
            tracer.unpatch()
        return result

    run.wall_ns = 0
    return run


def _per_layer(args, bench, workloads, parse_s) -> tuple[dict, int, list[str], list[str]]:
    from spans import SpanTotals, Tracer

    tracer = Tracer()
    traced = _traced_pass(tracer, bench, workloads)
    timed = _timed_passes(bench, args.seconds,
                          Calibration(CALIBRATION_KERNEL[args.workload]), traced)
    attempted, failures = timed.attempted, timed.failures
    summary = tracer.summary(traced.wall_ns)
    # Span times are normalized by the mean speed over the traced passes, and
    # every count and time is per traced pass.
    speed = statistics.fmean(timed.traced_speed)
    n_passes = len(timed.traced)

    def span(name):
        return summary.by_name.get(name, SpanTotals(0, 0, 0))

    def count(name, key):
        return summary.counts.get(name, {}).get(key, 0)

    def per_pass(n):
        return n / n_passes

    def seconds(ns):
        return ns * speed / 1e9 / n_passes

    def per_unit(ns, units, ns_per_unit=1.0):
        return ns * speed / units / ns_per_unit if units else 0.0

    values, source = {}, {}

    def put(metric, span_name, value):
        values[metric] = value
        source[metric] = span_name

    est = span("montecarlo.estimate")
    chunks = span("montecarlo.chunk_generator")
    zf = span("transceiver.zf_gains_batch")
    wg = span("scenario.waveguide_y_offsets")
    put("cli.parse_config_s", None, parse_s)
    put("cli.run_experiment.self_s", None, seconds(span("cli.run_experiment").self_ns))
    for metric, value in (
            ("calls", per_pass(est.calls)),
            ("self_s", seconds(est.self_ns)),
            ("self_ns_per_trial",
             per_unit(est.self_ns, bench.trials_per_pass * n_passes))):
        put(f"montecarlo.estimate.{metric}", "montecarlo.estimate", value)
    put("montecarlo.chunks", "montecarlo.chunk_generator", per_pass(chunks.calls))
    put("montecarlo.chunk_generator_s", "montecarlo.chunk_generator",
        seconds(chunks.total_ns))
    zf_matrices = count("transceiver.zf_gains_batch", "matrices")
    for metric, value in (
            ("calls", per_pass(zf.calls)),
            ("s", seconds(zf.total_ns)),
            ("ns_per_matrix", per_unit(zf.total_ns, zf_matrices)),
            ("ok_frac", count("transceiver.zf_gains_batch", "ok") / zf_matrices
             if zf_matrices else 0.0)):
        put(f"transceiver.zf_gains_batch.{metric}", "transceiver.zf_gains_batch",
            value)
    for name, unit, prefix in (
            ("transceiver.design2_rates_from_power", "rows", "ns_per_row"),
            ("channel.unblocked_probability_sq", "links", "ns_per_link")):
        put(f"{name}.s", name, seconds(span(name).total_ns))
        put(f"{name}.{prefix}", name, per_unit(span(name).total_ns, count(name, unit)))
    put("scenario.waveguide_y_offsets.calls", "scenario.waveguide_y_offsets",
        per_pass(wg.calls))
    put("scenario.waveguide_y_offsets.s", "scenario.waveguide_y_offsets",
        seconds(wg.total_ns))
    for cls in ("closed_form", "quad_1d", "quad_2d"):
        totals = span("analytics." + cls)
        put(f"analytics.{cls}.calls", None, per_pass(totals.calls))
        put(f"analytics.{cls}.us_per_call", None,
            per_unit(totals.total_ns, totals.calls, 1e3))
    put("analytics.quad.calls", "analytics.quad",
        per_pass(count("analytics.quad", "calls")))
    put("trace.overhead_frac", None,
        statistics.median(timed.traced) / statistics.median(timed.plain) - 1.0)
    put("trace.unattributed_s", None, seconds(summary.unattributed_ns))

    # A re-bound name that no longer exists reads -1 (unmeasured), never 0.
    targets = {name: f"{module}.{attr}"
               for module, attr, name, _ in CALL_SITE_SPANS}
    targets["analytics.quad"] = "pinchsim.analytics.quad"
    for metric, name in source.items():
        if name is not None and targets[name] in tracer.unmeasured:
            values[metric] = -1.0

    self_total = sum(t.self_ns for t in summary.by_name.values())
    notes = [
        f"traced passes {n_passes}, plain passes {len(timed.plain)}, "
        f"mean speed {speed:.4f}",
        f"unmeasured: {', '.join(tracer.unmeasured) or 'none'}",
        "tracer self-check: sum(self) + unattributed = "
        f"{(self_total + summary.unattributed_ns) / 1e9:.9f} s, traced wall = "
        f"{summary.wall_ns / 1e9:.9f} s -> {'ok' if summary.consistent else 'FAILED'}",
    ]
    if not summary.consistent:
        failures.append("tracer self-check failed")
    return values, attempted, failures, notes


def main(argv=None) -> int:
    args = _parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "pinchsim" / "__init__.py").is_file():
        print(f"error: no pinchsim source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return _setup_probe(args)

    import pinchsim
    import workloads
    if not Path(pinchsim.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: pinchsim imported from {pinchsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (expected one of "
              f"{', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    spec = _load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.trace:
            bench, parse_s = _build_traced(workloads, args, work_dir)
        else:
            bench = _make_bench(workloads, args.workload, args.seed, work_dir)
        attempted, failures = bench.check_pass(bench.run_pass())  # warm-up
        if args.trace:
            values, n, msgs, notes = _per_layer(args, bench, workloads, parse_s)
        else:
            values, n, msgs, notes = _end_to_end(args, bench)
        attempted += n
        failures += msgs
        n, msgs = bench.untimed_checks()
        attempted += n
        failures += msgs
        provenance = _provenance(args, bench)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass

    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("computed metrics do not match BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    failed = min(len(failures), attempted)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for note in notes:
        print(note)
    for m in declared:
        print(f"metric {m['name']} = {values[m['name']]:.9g} {m['unit']} "
              f"({m['better']} is better)")
    print(f"failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

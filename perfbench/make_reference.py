"""Regenerate ``perfbench/reference.json``, the seed-independent references.

The ``zf_multiuser`` and ``dense_d2`` inputs differ between benchmark seeds
only in their master seed, so one large-budget run at a master seed of its
own gives reference estimates that every benchmark run is checked against.
Rerun this after changing those workloads' systems, schemes or axes:

    python3 perfbench/make_reference.py     # about 2 minutes on 2 cores
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_TRIALS = 128 * 8192
REFERENCE_MASTER_SEED = 271828182


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from pinchsim.cli import parse_config, run_experiment

    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        for workload in ("zf_multiuser", "dense_d2"):
            rows = []
            for inp in workloads.mc_inputs(workload, seed=0):
                out = Path(tmp) / f"{inp.name}.csv"
                run_experiment(parse_config(inp.document(
                    out, n_trials=REFERENCE_TRIALS,
                    master_seed=REFERENCE_MASTER_SEED, workers=2)))
                rows += [{"input": inp.name, "scheme": r["scheme"],
                          "axis_value": r["axis_value"], "metric": r["metric"],
                          "value": float(r["value"]),
                          "ci_half_width": float(r["ci_half_width"])}
                         for r in workloads.read_rows(out.read_text(encoding="utf-8"))]
            reference[workload] = {"n_trials": REFERENCE_TRIALS,
                                   "master_seed": REFERENCE_MASTER_SEED,
                                   "rows": rows}
            print(f"{workload}: {len(rows)} reference rows", file=sys.stderr)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n",
                                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

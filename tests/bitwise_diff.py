"""Show that a change leaves every hashed result bit for bit as it was.

    python tests/bitwise_diff.py PARENT_SRC

runs each hash harness next to this file (``chunk_hashes.py``,
``preset_hashes.py`` and ``analytic_hashes.py``) twice, with PYTHONPATH at
``PARENT_SRC`` (the ``src`` directory of the checkout to compare against)
and at this checkout's ``src``, the two runs side by side. It prints, per
harness, either the number of identical lines or every line that differs,
and exits nonzero on any difference or on a harness that fails. The file
is not named ``test_*``, so pytest does not collect it.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
HARNESSES = ("chunk_hashes.py", "preset_hashes.py", "analytic_hashes.py")


def start(harness: str, src: Path) -> subprocess.Popen:
    path = os.pathsep.join([str(src)] + [p for p in os.environ.get(
        "PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.Popen([sys.executable, str(HERE / harness)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=dict(os.environ, PYTHONPATH=path))


def outputs(harness: str, parent: Path) -> list[list[str]]:
    """The harness's output lines on ``parent``, then on this checkout."""
    procs = [start(harness, src) for src in (parent, HERE.parent / "src")]
    results = [proc.communicate() for proc in procs]
    for proc, (_, err), label in zip(procs, results,
                                     ("PARENT_SRC", "this checkout")):
        if proc.returncode != 0:
            raise SystemExit(f"{harness} on {label} failed with exit code "
                             f"{proc.returncode}:\n{err}")
    return [out.splitlines() for out, _ in results]


def main() -> int:
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} PARENT_SRC")
    parent = Path(sys.argv[1]).resolve()
    if not (parent / "pinchsim").is_dir():
        raise SystemExit(f"{parent} holds no pinchsim package")
    differs = False
    for harness in HARNESSES:
        old, new = outputs(harness, parent)
        diff = list(difflib.unified_diff(old, new, "parent", "this checkout",
                                         n=0, lineterm=""))
        if diff:
            differs = True
            print(f"{harness}: differs")
            print("\n".join(diff))
        else:
            print(f"{harness}: {len(new)} lines identical")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())

"""Show that a change leaves every hashed result bit for bit as it was.

    python tests/bitwise_diff.py PARENT

runs each hash harness next to this file (``chunk_hashes.py``,
``preset_hashes.py`` and ``analytic_hashes.py``) twice, with PYTHONPATH at
the parent's ``src`` and at this checkout's ``src``, the two runs side by
side. ``PARENT`` is either the ``src`` directory of the checkout to compare
against or a git revision of this repository (``HEAD``, a branch, a commit),
whose ``src`` is extracted with ``git archive`` into a temporary directory.
It prints, per harness, either the number of identical lines or every line
that differs, then the line totals of ``src/pinchsim/*.py`` in the parent
and in this checkout (as ``wc -l`` counts them). It exits nonzero on any
difference or on a harness that fails. The file is not named ``test_*``, so
pytest does not collect it.
"""

import difflib
import io
import os
import subprocess
import sys
import tarfile
import tempfile
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
                                     ("PARENT", "this checkout")):
        if proc.returncode != 0:
            raise SystemExit(f"{harness} on {label} failed with exit code "
                             f"{proc.returncode}:\n{err}")
    return [out.splitlines() for out, _ in results]


def source_lines(src: Path) -> int:
    """Newlines in the modules of the ``pinchsim`` package under ``src``."""
    return sum(path.read_bytes().count(b"\n")
               for path in (src / "pinchsim").glob("*.py"))


def parent_src(parent: str, scratch: str) -> Path:
    """``parent`` as a ``src`` directory, or the ``src`` of the git revision
    ``parent``, extracted under ``scratch``."""
    path = Path(parent)
    if path.is_dir():
        if not (path / "pinchsim").is_dir():
            raise SystemExit(f"{path} holds no pinchsim package")
        return path.resolve()
    archive = subprocess.run(["git", "-C", str(HERE.parent), "archive",
                              parent, "src"], capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(f"{parent} is neither a directory nor a git "
                         f"revision with a src tree:\n"
                         f"{archive.stderr.decode(errors='replace')}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(scratch, filter="data")
    return Path(scratch) / "src"


def main() -> int:
    if len(sys.argv) != 2:
        raise SystemExit(f"usage: {sys.argv[0]} PARENT  (a src directory "
                         f"or a git revision)")
    differs = False
    with tempfile.TemporaryDirectory() as scratch:
        parent = parent_src(sys.argv[1], scratch)
        for harness in HARNESSES:
            old, new = outputs(harness, parent)
            diff = list(difflib.unified_diff(old, new, "parent",
                                             "this checkout", n=0,
                                             lineterm=""))
            if diff:
                differs = True
                print(f"{harness}: differs")
                print("\n".join(diff))
            else:
                print(f"{harness}: {len(new)} lines identical")
        print(f"src/pinchsim/*.py: {source_lines(parent)} lines in the "
              f"parent, {source_lines(HERE.parent / 'src')} in this checkout")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())

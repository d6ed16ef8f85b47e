"""Print a sha256 of every file that ``pinchsim figure`` writes, per preset,
and of each preset's JSON results from ``pinchsim simulate``.

Run it against two checkouts and diff the outputs to show that a change
leaves every preset's CSV, JSON, config echo and plot stub byte for byte as
it was:

    PYTHONPATH=src python tests/preset_hashes.py > new.txt
    PYTHONPATH=../parent/src python tests/preset_hashes.py > old.txt
    diff old.txt new.txt

``pinchsim`` is imported from PYTHONPATH, so the script itself runs
unchanged against any checkout. Each preset runs at its own trial budget,
once with ``workers`` 1 and once with 2, inside a fresh temporary directory
with ``"."`` as the output directory, so that no echo holds an absolute
path. The JSON results come from ``simulate`` on a document holding only
``preset = <id>``, with ``--format json --out <id>.json`` (command-line
flags beat preset fields); the paths it prints are kept out of the output.
Each line reads ``workers=<w> <file> <sha256>``. The file is not named
``test_*``, so pytest does not collect it.
"""

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from pinchsim import Preset, reproduce_figure
from pinchsim.cli import main as cli_main


def simulate_json(preset: Preset, workers: int) -> list[Path]:
    """Run ``simulate`` on the preset as JSON; return the files it wrote."""
    name = preset.value.lower()
    doc = Path(f"{name}.cfg")
    doc.write_text(f"preset = {name}\n", encoding="utf-8")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = cli_main(["simulate", str(doc), "--format", "json",
                       "--out", f"{name}.json", "--workers", str(workers)])
    if rc != 0:
        raise SystemExit(f"simulate {name} failed")
    return [Path(line) for line in printed.getvalue().splitlines()]


def main() -> None:
    start = Path.cwd()
    for workers in (1, 2):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                for preset in Preset:
                    paths = (reproduce_figure(preset, ".", workers=workers)
                             + simulate_json(preset, workers))
                    for path in paths:
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        print(f"workers={workers} {path} {digest}")
            finally:
                os.chdir(start)


if __name__ == "__main__":
    main()

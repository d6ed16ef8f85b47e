"""Print a sha256 of every file that ``pinchsim figure`` writes, per preset.

Run it against two checkouts and diff the outputs to show that a change
leaves every preset's CSV, config echo and plot stub byte for byte as it
was:

    PYTHONPATH=src python tests/preset_hashes.py > new.txt
    PYTHONPATH=../parent/src python tests/preset_hashes.py > old.txt
    diff old.txt new.txt

``pinchsim`` is imported from PYTHONPATH, so the script itself runs
unchanged against any checkout. Each preset runs at its own trial budget,
once with ``workers`` 1 and once with 2, inside a fresh temporary directory
with ``"."`` as the output directory, so that no echo holds an absolute
path. Each line reads ``workers=<w> <file> <sha256>``. The file is not named
``test_*``, so pytest does not collect it.
"""

import hashlib
import os
import tempfile
from pathlib import Path

from pinchsim import Preset, reproduce_figure


def main() -> None:
    start = Path.cwd()
    for workers in (1, 2):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                for preset in Preset:
                    for path in reproduce_figure(preset, ".", workers=workers):
                        digest = hashlib.sha256(path.read_bytes()).hexdigest()
                        print(f"workers={workers} {path} {digest}")
            finally:
                os.chdir(start)


if __name__ == "__main__":
    main()

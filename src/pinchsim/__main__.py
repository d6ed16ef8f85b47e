"""Module entry point: ``python -m pinchsim figure fig2b --out results/``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

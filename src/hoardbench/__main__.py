"""`python -m hoardbench`: the same command line as `hoardbench` (see cli.py)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

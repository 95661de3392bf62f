"""``python -m charvar``: the command-line driver of :mod:`charvar.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

"""Entry point for `python -m lpakit`, the same command line as `lpakit`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

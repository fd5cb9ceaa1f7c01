"""``python -m spheremap``: the ``spheremap`` command line."""

import sys

from .cli_io import cli_main

__all__ = []  # an entry point; importing it runs nothing

if __name__ == "__main__":
    sys.exit(cli_main())

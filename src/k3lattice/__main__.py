"""``python -m k3lattice``: the ``k3lattice`` command, runnable from a
checkout with ``PYTHONPATH=src`` and no install."""

import sys

from k3lattice.cli import main

if __name__ == "__main__":
    sys.exit(main())

"""``python -m permutons``: the ``permutons`` command without an installed script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

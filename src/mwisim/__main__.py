"""``python -m mwisim``: the same command line as the ``mwisim`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())

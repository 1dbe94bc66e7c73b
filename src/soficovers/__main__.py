"""``python -m soficovers``: the command line, without installing the package."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())

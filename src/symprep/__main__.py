"""`python -m symprep`: the same command line as the installed `symprep` script."""

import sys

from . import cli

sys.exit(cli.main())

"""`python -m cartier`: the command line of `cartier.cli`."""

import sys

from .cli import main

sys.exit(main())

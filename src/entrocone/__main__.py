"""`python -m entrocone ...`: the `entrocone` command, without the console script."""

import sys

from .cli import main

sys.exit(main())

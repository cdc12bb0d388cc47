#!/usr/bin/env python3
"""Sample the four boundary-layer profiles on a log-spaced xi grid to CSV.

Runs `blfem corrector` with this script's arguments (its flags and
--config); see that subcommand for the schema.
"""

import sys

from blfem.cli import main

if __name__ == "__main__":
    sys.exit(main(["corrector", *sys.argv[1:]]))

"""Set-up probe, run in a fresh interpreter: import eqposet, build the first tower.

Usage: python3 perfbench/setup_probe.py SRC_DIR P MODE
"""

import sys

sys.path.insert(0, sys.argv[1])

import eqposet.cli  # noqa: E402,F401  (the import is what is being timed)
from eqposet import default_tower  # noqa: E402

default_tower(int(sys.argv[2]), sys.argv[3])

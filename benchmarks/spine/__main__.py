"""``python -m benchmarks.spine run|compare`` — see ``suite.py``."""

import sys

from benchmarks.spine.suite import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

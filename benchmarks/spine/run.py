"""Run one workload once: the command ``BENCHMARK.json`` names.

    python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1

Works from a bare checkout (no ``PYTHONPATH``): the checkout root and its
``src`` go on ``sys.path`` here.  The last line of standard output is the
result object the builder's contract describes.  Where ``src/repro`` is
missing the imports fail and the exit code is non-zero, with no result.
"""

import sys
import time

_STARTED = time.perf_counter()  # set-up time counts the imports below

from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.spine.runner import workload_main  # noqa: E402

if __name__ == "__main__":
    sys.exit(workload_main(sys.argv[1:], started=_STARTED))

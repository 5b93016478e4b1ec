"""Cold set-up time of one workload, measured in a fresh interpreter.

Times the import of the simulator plus the workload's first
``Machine(...)``, ``mount()`` and ``create_file()``, and before that the
cold import of numpy, which the simulator needs and which is the same
for every version of it.  Prints both as one JSON line.  ``run.py``
starts this script several times per run, rescales each set-up time by
the numpy import of the same process (``hostclock.rescale_setup``), and
reports the median.

Usage::

    python3 perfbench/setup_probe.py --workload paper-read
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    start = time.perf_counter()
    import numpy  # noqa: F401

    loaded = time.perf_counter()
    import cells

    first = cells.WORKLOADS[args.workload](0)[0]
    first.build("fifo")
    done = time.perf_counter()
    print(json.dumps({"raw_s": done - loaded, "numpy_import_s": loaded - start}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

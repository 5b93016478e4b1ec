"""One-command cProfile of a single Table 1 cell.

Perf PRs start from data, not guesses: this script runs one
(request size, prefetch) Table 1 cell under :mod:`cProfile` and prints
the top cumulative-time entries, plus the wall time, the number of
events the kernel scheduled, and the derived events-per-second figure
(slowed by the profiler's own overhead, so compare it only with other
profiled runs).  Usage::

    PYTHONPATH=src python benchmarks/profile_cell.py [--size-kb 1024]
        [--prefetch] [--rounds 16] [--top 20] [--sort cumulative]
        [--output PATH]

``--output`` additionally dumps the raw pstats file for use with
``snakeviz``/``pstats`` offline.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.experiments.common import (  # noqa: E402
    KB,
    run_collective,
    scaled_file_size,
)
from repro.pfs import IOMode  # noqa: E402


def run_cell(size_kb: int, prefetch: bool, rounds: int):
    request = size_kb * KB
    return run_collective(
        request_size=request,
        file_size=scaled_file_size(request, rounds=rounds),
        iomode=IOMode.M_RECORD,
        prefetch=prefetch,
        rounds=rounds,
        keep_machine=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--size-kb", type=int, default=1024, help="request size in KB (default 1024)"
    )
    parser.add_argument(
        "--prefetch", action="store_true", help="enable the one-request-ahead prefetcher"
    )
    parser.add_argument(
        "--rounds", type=int, default=16, help="reads per rank (default 16, the bench setting)"
    )
    parser.add_argument(
        "--top", type=int, default=20, help="rows of the pstats report (default 20)"
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "ncalls"),
        help="pstats sort key (default cumulative)",
    )
    parser.add_argument("--output", default=None, help="also dump raw pstats data to this path")
    args = parser.parse_args(argv)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    report = run_cell(args.size_kb, args.prefetch, args.rounds)
    profiler.disable()
    wall_s = time.perf_counter() - start

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    if args.output:
        stats.dump_stats(args.output)

    print(
        f"cell: table1 {args.size_kb}KB prefetch={'on' if args.prefetch else 'off'} "
        f"rounds={args.rounds}"
    )
    print(f"bandwidth: {report.collective_bandwidth_mbps:.2f} MB/s")
    print(f"wall time: {wall_s:.3f} s")
    events = report.machine.env._eid
    print(f"events: {events} ({events / wall_s:,.0f} events/s under cProfile)")
    print(stream.getvalue())
    if args.output:
        print(f"raw pstats dumped to {os.path.abspath(args.output)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

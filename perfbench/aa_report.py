"""A/A spread report: the same tree run as two alternating sides.

Runs ``run.py`` on each workload ``--runs`` times per side, alternating
side A and side B (A, B, B, A, A, B, ...), each run with its own seed.
For every end-to-end metric it prints each side's median and quartiles,
the spread (interquartile distance over median), the gap between the
two medians, the spread over all runs of both sides, and the metric's
bound from ``BENCHMARK.json``.  The same
figures computed from raw, unrescaled seconds are printed beside them:
they show how much of the spread the reference-loop rescaling removes,
and why bounds set on raw seconds were not met on a host whose speed
drifts.

Usage, from the root of a checkout::

    python3 perfbench/aa_report.py --runs 5
    python3 perfbench/aa_report.py --runs 5 --workloads write-mix
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

import hostclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr}")
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace0.json")
    with open(path) as fh:
        record = json.load(fh)
    return {
        "scaled": {k: v["value"] for k, v in result["metrics"].items()},
        "raw": record["raw_unscaled"],
        "reference_spread": record["reference_loop"]["iqr_over_median"],
    }


def describe(values: List[float]) -> str:
    if None in values or len(values) < 2:
        return "n/a"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = hostclock.spread(values)
    return f"median {q2:10.5g}  q1 {q1:10.5g}  q3 {q3:10.5g}  spread {spread:6.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per side")
    parser.add_argument("--workloads", nargs="*", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        sides: Dict[str, List[dict]] = {"A": [], "B": []}
        for i in range(2 * args.runs):
            side = "AB"[(i + i // 2) % 2]
            sides[side].append(one_run(workload, 1000 + i, seconds))
        print(f"\n== {workload}: {args.runs} runs per side, {seconds:g} s each")
        for side, runs in sides.items():
            refs = [r["reference_spread"] for r in runs]
            print(
                f"  side {side}: reference-loop IQR/median within a run "
                f"{statistics.median(refs):.3f}"
            )
        for name, bound in bounds.items():
            print(f"  {name}  (bound {bound})")
            medians = {}
            for side, runs in sides.items():
                scaled = [r["scaled"][name] for r in runs]
                raw = [r["raw"].get(name) for r in runs]
                medians[side] = statistics.median(scaled)
                print(f"    {side} rescaled  {describe(scaled)}")
                print(f"    {side} raw       {describe(raw)}")
                if name != "setup_s":
                    worst = max(worst, hostclock.spread(scaled) / bound)
            gap = abs(medians["B"] - medians["A"]) / medians["A"]
            print(f"    median gap B vs A {gap:6.3f}  ({gap / bound:.2f} of bound)")
            print(f"    all runs  {describe([r['scaled'][name] for r in sides['A'] + sides['B']])}")
            worst = max(worst, gap / bound)
    print(f"\nlargest spread or gap as a share of its bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

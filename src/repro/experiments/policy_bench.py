"""Head-to-head prefetch policy bench.

Races the paper's static one-request-ahead prototype against the
depth-k pipelines (:mod:`repro.core.policies`) across three workload
families:

- ``paper`` -- the paper's M_RECORD collective cells over the balanced
  delay sweep.  The acceptance bound here is *no regression*: the
  ``stride`` contender is a depth-1 pipeline whose detector agrees with
  the record arithmetic, so it is bit-identical to static here.
- ``strided`` -- non-unit-stride M_ASYNC readers
  (:class:`repro.workloads.StridedReadWorkload`), where the M_ASYNC
  mode arithmetic predicts the wrong next offset and only the
  stride-detecting policies prefetch anything useful.
- ``deep-seq`` -- sequential M_ASYNC readers with no compute delay,
  where one request ahead is structurally too shallow (the prefetch is
  issued after the demand read returns, so the next read always catches
  it in flight) and a deeper pipeline converts partial hits into hits.

The ``comparison`` block computes the acceptance criteria for the
contender named in ``comparison.tuned_policy``: ``paper_ok`` (contender
>= static on every paper cell) and ``new_family_strict_win`` (strictly
better on at least one new family).  Both are asserted by
``tests/test_policy_bench.py``, in process and against the committed
``BENCH_8.json``.

Usage::

    PYTHONPATH=src python -m repro.experiments.policy_bench
        [--quick] [--output PATH]

Fully deterministic: no timestamps, rounded floats -- reruns of an
unchanged tree produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import (
    KB,
    run_collective,
    run_strided,
    scaled_file_size,
)
from repro.pfs import IOMode

#: The policy contenders: (name, run kwargs).  ``static`` is exactly the
#: paper's prototype (the machine defaults).
POLICIES: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("static", {"prefetch_policy": "one-ahead", "prefetch_depth": 1}),
    ("depth-4", {"prefetch_policy": "depth-k", "prefetch_depth": 4}),
    ("stride", {"prefetch_policy": "depth-k", "prefetch_depth": 1}),
)

#: The policy whose numbers gate acceptance against ``static``.
CONTENDER = "stride"

DEFAULT_PAPER_SIZES_KB = (64, 256)
DEFAULT_PAPER_DELAYS_S = (0.0, 0.025, 0.05, 0.1, 0.2)
DEFAULT_NEW_SIZES_KB = (64,)
DEFAULT_NEW_DELAYS_S = (0.0, 0.05)
DEFAULT_ROUNDS = 16

#: Bandwidths within EPS MB/s count as ties (float formatting noise);
#: a strict win must clear the static number by WIN_MARGIN relative.
EPS = 1e-6
WIN_MARGIN = 0.01


def _round(value: float, digits: int = 4) -> float:
    return round(float(value), digits)


def _paper_cell(size_kb: int, delay_s: float, rounds: int, policy_kw) -> float:
    request = size_kb * KB
    report = run_collective(
        request_size=request,
        file_size=scaled_file_size(request, rounds=rounds),
        compute_delay=delay_s,
        iomode=IOMode.M_RECORD,
        prefetch=True,
        rounds=rounds,
        **policy_kw,
    )
    return report.collective_bandwidth_mbps


def _strided_cell(size_kb: int, delay_s: float, rounds: int, policy_kw) -> float:
    request = size_kb * KB
    stride = 3 * request  # odd unit step: walks all I/O nodes
    report = run_strided(
        request_size=request,
        file_size=stride * 8 * rounds,
        stride=stride,
        compute_delay=delay_s,
        prefetch=True,
        rounds=rounds,
        **policy_kw,
    )
    return report.collective_bandwidth_mbps


def _deep_seq_cell(size_kb: int, delay_s: float, rounds: int, policy_kw) -> float:
    request = size_kb * KB
    report = run_collective(
        request_size=request,
        file_size=scaled_file_size(request, rounds=rounds),
        compute_delay=delay_s,
        iomode=IOMode.M_ASYNC,
        prefetch=True,
        rounds=rounds,
        **policy_kw,
    )
    return report.collective_bandwidth_mbps


FAMILIES = {
    "paper": _paper_cell,
    "strided": _strided_cell,
    "deep-seq": _deep_seq_cell,
}


def run_policy_bench(
    quick: bool = False,
    paper_sizes_kb: Optional[Sequence[int]] = None,
    paper_delays_s: Optional[Sequence[float]] = None,
    rounds: Optional[int] = None,
) -> Dict[str, object]:
    """Run every (family, size, delay, policy) cell; returns the report."""
    if quick:
        paper_sizes = paper_sizes_kb or (64,)
        paper_delays = paper_delays_s or (0.0, 0.05, 0.2)
        new_sizes: Sequence[int] = (64,)
        new_delays: Sequence[float] = (0.0, 0.05)
        n_rounds = rounds or 8
    else:
        paper_sizes = paper_sizes_kb or DEFAULT_PAPER_SIZES_KB
        paper_delays = paper_delays_s or DEFAULT_PAPER_DELAYS_S
        new_sizes = DEFAULT_NEW_SIZES_KB
        new_delays = DEFAULT_NEW_DELAYS_S
        n_rounds = rounds or DEFAULT_ROUNDS

    grids = {
        "paper": (paper_sizes, paper_delays),
        "strided": (new_sizes, new_delays),
        "deep-seq": (new_sizes, new_delays),
    }
    cells: List[Dict[str, object]] = []
    for family, cell_fn in FAMILIES.items():
        sizes, delays = grids[family]
        for size_kb in sizes:
            for delay_s in delays:
                bandwidth = {
                    name: _round(cell_fn(size_kb, delay_s, n_rounds, kw))
                    for name, kw in POLICIES
                }
                cells.append(
                    {
                        "family": family,
                        "request_kb": size_kb,
                        "delay_s": delay_s,
                        "bandwidth_mbps": bandwidth,
                    }
                )
    return {
        "bench": "policy-head-to-head",
        "schema": 1,
        "settings": {
            "rounds": n_rounds,
            "quick": quick,
            "paper_sizes_kb": list(paper_sizes),
            "paper_delays_s": list(paper_delays),
            "new_sizes_kb": list(new_sizes),
            "new_delays_s": list(new_delays),
        },
        "policies": [
            {"name": name, "overrides": dict(kw)} for name, kw in POLICIES
        ],
        "cells": cells,
        "comparison": compare(cells),
    }


def compare(cells: Sequence[Dict[str, object]], contender: str = CONTENDER) -> Dict[str, object]:
    """The acceptance verdicts: *contender*-vs-static per family.

    ``paper_ok``: the contender's bandwidth is >= static on *every*
    paper cell (ties allowed -- on full-hit cells the runs are
    bit-identical by design).  ``new_family_strict_win``: at least one
    non-paper family where the contender beats static on every cell
    by more than :data:`WIN_MARGIN` relative.
    """
    paper_checks: List[Dict[str, object]] = []
    wins: Dict[str, bool] = {}
    for family in FAMILIES:
        fam_cells = [c for c in cells if c["family"] == family]
        if not fam_cells:
            continue
        if family == "paper":
            for cell in fam_cells:
                bw = cell["bandwidth_mbps"]
                paper_checks.append(
                    {
                        "request_kb": cell["request_kb"],
                        "delay_s": cell["delay_s"],
                        "static_mbps": bw["static"],
                        "tuned_mbps": bw[contender],
                        "ok": bw[contender] >= bw["static"] - EPS,
                    }
                )
        else:
            wins[family] = all(
                c["bandwidth_mbps"][contender]
                > c["bandwidth_mbps"]["static"] * (1.0 + WIN_MARGIN)
                for c in fam_cells
            )
    return {
        "tuned_policy": contender,
        "paper_ok": all(c["ok"] for c in paper_checks),
        "paper_cells": paper_checks,
        "strict_win_by_family": wins,
        "new_family_strict_win": any(wins.values()),
    }


def render_ascii(report: Dict[str, object]) -> str:
    """Fixed-width rendering of the head-to-head table."""
    names = [p["name"] for p in report["policies"]]
    header = ["family", "req", "delay"] + names
    rows = []
    for cell in report["cells"]:
        rows.append(
            [
                cell["family"],
                f"{cell['request_kb']}KB",
                f"{cell['delay_s']:.3f}s",
            ]
            + [f"{cell['bandwidth_mbps'][n]:.2f}" for n in names]
        )
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines = ["Prefetch policy head-to-head (collective MB/s)", ""]
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    cmp_block = report["comparison"]
    lines.append("")
    lines.append(
        f"paper cells: {cmp_block['tuned_policy']} >= static on all = {cmp_block['paper_ok']}; "
        f"strict wins: {cmp_block['strict_win_by_family']}"
    )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.policy_bench",
        description="Head-to-head prefetch policy bench.",
    )
    parser.add_argument("--quick", action="store_true", help="trimmed grid (CI)")
    parser.add_argument("--output", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)
    report = run_policy_bench(quick=args.quick)
    print(render_ascii(report))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.output}")
    cmp_block = report["comparison"]
    if not cmp_block["paper_ok"]:
        print("FAIL: the contender regresses a paper cell", file=sys.stderr)
        return 1
    if not cmp_block["new_family_strict_win"]:
        print("FAIL: no strict win on any new workload family", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

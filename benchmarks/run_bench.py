"""Machine-readable bench trajectory: the Table 1 / Figure 2 points.

Writes ``BENCH_local.json`` (untracked) at the repo root, or ``--output``:
collective read bandwidth for
every (request size, prefetch) Table 1 cell and every (mode, request
size) Figure 2 cell, plus a per-cell bottleneck summary naming the
saturating resource.  The file is the perf baseline later PRs regress
against -- scaling work that moves these numbers should move them *up*.

Since PR 6 every cell also carries *simulator* speed columns:
``wall_time_s`` (best-of-N wall seconds for the default-configuration
run of that cell, stopwatch shared with :mod:`benchmarks.speed`) and
``cells_per_s`` (its reciprocal), aggregated in a top-level ``speed``
block.  They are advisory: a speed claim needs a same-host A/B run
(``perfbench/aa_report.py``), not a ratio against a wall time captured
elsewhere.  These are the only non-deterministic columns in the file --
bandwidth, bottleneck, and tie-check results stay byte-identical across
reruns of an unchanged tree; wall times vary with the host.

Each Table 1 cell also carries two fault-plane columns:

- ``degraded_bandwidth_mbps``: the same workload with one spindle of
  ``raid0`` failed from t=0, served via RAID-3 parity reconstruction
  (:mod:`repro.faults`).
- ``rebuild_window_bandwidth_mbps``: the same workload while a
  half-rate-throttled copy-back rebuild of the replaced spindle runs,
  its stripe-by-stripe traffic competing with demand/prefetch I/O in
  the RAID LOOK queue and on the SCSI bus.

Tie-order checking (``--tie-check``): with ``full``, every cell is run
under the tie-order race sanitizer
(:func:`repro.analysis.sanitizers.check_tie_order`) -- executed under
both same-timestamp event orderings (``fifo``/``lifo``) -- doubling
bench wall time.  The default ``sample`` mode instead runs the full
check on a deterministic ~1-in-4 subset of cells (selected by a content
hash of the cell key, so the subset never drifts between runs or
machines) and runs the rest fifo-only.  Per cell, ``tie_checked``
records whether the sanitizer ran and ``deterministic`` is true/false
when checked, null when sampled out.  A ``false`` anywhere means an
arbitration race crept back into the model.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--quick]
        [--tie-check {full,sample}] [--output PATH]

The committed ``BENCH_<n>.json`` snapshots are frozen: ``main`` refuses
an ``--output`` that names one, before any cell runs.

``--quick`` trims sizes and rounds for CI; the default settings match
the experiment suite (rounds=16, the paper's request sizes).  Output is
deterministic -- no timestamps, rounded floats, content-hash sampling --
so reruns of an unchanged tree produce byte-identical JSON.

Since PR 7 the output also carries an ``ablation`` block summarising the
mechanism-importance observatory (:mod:`repro.obs.ablation`): the ranked
importance vector from the committed ``BENCH_ablation.json`` and the
tripwire verdict against ``benchmarks/baseline_ablation.json``.  The
block reads the committed artifacts rather than re-running the sweep
(regenerate with ``python -m repro.obs.ablation``).

Since PR 8 the output also carries a ``policies`` block: the prefetch
policy head-to-head (:mod:`repro.experiments.policy_bench`) racing the
paper's static one-request-ahead prototype against the depth-k
pipelines across the paper's delay sweep plus the strided and
deep-sequential families, with the acceptance verdicts (contender >=
static on every paper cell; strict win on a new family) inline.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import zlib

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
from repro.analysis.sanitizers import check_tie_order  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    KB,
    DEFAULT_REQUEST_SIZES_KB,
    run_collective,
    run_separate_files,
    scaled_file_size,
)
from repro.experiments.policy_bench import run_policy_bench  # noqa: E402
from repro.faults import FaultPlan, FaultSpec  # noqa: E402
from repro.pfs import IOMode  # noqa: E402

FIGURE2_MODES = (IOMode.M_UNIX, IOMode.M_LOG, IOMode.M_SYNC, IOMode.M_RECORD, IOMode.M_ASYNC)

#: One in SAMPLE_MODULUS cells gets the full fifo/lifo check in
#: ``--tie-check=sample`` mode.
SAMPLE_MODULUS = 4


#: Where ``main`` writes without ``--output``: an untracked scratch name,
#: never one of the frozen ``BENCH_<n>.json`` snapshots.
DEFAULT_OUTPUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_local.json")

_SNAPSHOT = re.compile(r"BENCH_\d+\.json")


def committed_snapshot(path: str) -> bool:
    """True when *path* names a ``BENCH_<n>.json`` snapshot that git
    tracks (or, outside a git checkout, one that exists)."""
    path = os.path.abspath(path)
    name = os.path.basename(path)
    if not _SNAPSHOT.fullmatch(name):
        return False
    try:
        done = subprocess.run(
            ["git", "ls-files", "--error-unmatch", name],
            cwd=os.path.dirname(path),
            capture_output=True,
        )
    except OSError:
        return os.path.exists(path)
    return done.returncode == 0


def tie_check_sampled(cell_key: str) -> bool:
    """Deterministic cell sampler for ``--tie-check=sample``.

    Pure function of the cell key's bytes (zlib.crc32 -- stable across
    processes and platforms, unlike ``hash()``), so the sampled subset
    is identical on every run and machine.
    """
    return zlib.crc32(cell_key.encode("utf-8")) % SAMPLE_MODULUS == 0


def _round(value: float, digits: int = 4) -> float:
    return round(float(value), digits)


def _measure(cell_key: str, runner, tie_check: str):
    """Run one cell; returns (fifo report, deterministic, tie_checked)."""
    if tie_check == "full" or tie_check_sampled(cell_key):
        check = check_tie_order(runner)
        return check.reports["fifo"], check.deterministic, True
    return runner("fifo"), None, False


def bench_table1(sizes_kb, rounds: int, tie_check: str) -> list:
    """Table 1 cells: bandwidth + saturating resource,
    plus the degraded-mode (one failed spindle on raid0) and
    rebuild-window (copy-back in progress) bandwidths."""
    degraded_plan = FaultPlan.single_disk_failure(array="raid0", at_s=0.0)
    rebuild_plan = FaultPlan(
        specs=(
            FaultSpec(kind="disk_failure", target="raid0", at_s=0.0, disk_index=0),
            FaultSpec(
                kind="disk_repair", target="raid0", at_s=0.01, disk_index=0, rebuild_rate=0.5
            ),
        ),
    )
    points = []
    for size_kb in sizes_kb:
        request = size_kb * KB
        file_size = scaled_file_size(request, rounds=rounds)
        for prefetch in (False, True):
            cell_key = f"table1:{size_kb}kb:prefetch={prefetch}"
            report, deterministic, tie_checked = _measure(
                cell_key,
                lambda tb: run_collective(
                    request_size=request,
                    file_size=file_size,
                    iomode=IOMode.M_RECORD,
                    prefetch=prefetch,
                    rounds=rounds,
                    tie_break=tb,
                    keep_machine=True,
                ),
                tie_check,
            )
            degraded = run_collective(
                request_size=request,
                file_size=file_size,
                iomode=IOMode.M_RECORD,
                prefetch=prefetch,
                rounds=rounds,
                faults=degraded_plan,
            )
            rebuild = run_collective(
                request_size=request,
                file_size=file_size,
                iomode=IOMode.M_RECORD,
                prefetch=prefetch,
                rounds=rounds,
                faults=rebuild_plan,
            )
            bottleneck = report.machine.bottleneck_report()
            points.append(
                {
                    "request_kb": size_kb,
                    "prefetch": prefetch,
                    "deterministic": deterministic,
                    "tie_checked": tie_checked,
                    "collective_bandwidth_mbps": _round(
                        report.collective_bandwidth_mbps
                    ),
                    "degraded_bandwidth_mbps": _round(
                        degraded.collective_bandwidth_mbps
                    ),
                    "rebuild_window_bandwidth_mbps": _round(
                        rebuild.collective_bandwidth_mbps
                    ),
                    "mean_read_access_s": _round(
                        report.mean_read_access_time_s, 6
                    ),
                    "balanced": _round(report.balanced),
                    "bottleneck": None
                    if bottleneck is None
                    else {
                        "resource": bottleneck.resource,
                        "utilization": _round(bottleneck.utilization),
                        "saturated": len(bottleneck.saturated),
                    },
                }
            )
    return points


def bench_figure2(sizes_kb, rounds: int, tie_check: str) -> list:
    """Figure 2 cells: per-mode bandwidth plus the Separate Files case."""
    points = []
    for size_kb in sizes_kb:
        request = size_kb * KB
        file_size = scaled_file_size(request, rounds=rounds)
        for mode in FIGURE2_MODES:
            cell_key = f"figure2:{size_kb}kb:{mode.name}"
            report, deterministic, tie_checked = _measure(
                cell_key,
                lambda tb: run_collective(
                    request_size=request,
                    file_size=file_size,
                    iomode=mode,
                    rounds=rounds,
                    async_partition=False,
                    tie_break=tb,
                ),
                tie_check,
            )
            points.append(
                {
                    "request_kb": size_kb,
                    "mode": mode.name,
                    "deterministic": deterministic,
                    "tie_checked": tie_checked,
                    "collective_bandwidth_mbps": _round(
                        report.collective_bandwidth_mbps
                    ),
                }
            )
        cell_key = f"figure2:{size_kb}kb:SEPARATE_FILES"
        report, deterministic, tie_checked = _measure(
            cell_key,
            lambda tb: run_separate_files(
                request_size=request,
                file_size_per_node=request * rounds,
                tie_break=tb,
            ),
            tie_check,
        )
        points.append(
            {
                "request_kb": size_kb,
                "mode": "SEPARATE_FILES",
                "deterministic": deterministic,
                "tie_checked": tie_checked,
                "collective_bandwidth_mbps": _round(
                    report.collective_bandwidth_mbps
                ),
            }
        )
    return points


REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
ABLATION_REPORT_PATH = os.path.join(REPO_ROOT, "BENCH_ablation.json")
ABLATION_BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baseline_ablation.json"
)


def ablation_summary() -> dict:
    """Observatory summary from the committed ablation artifacts.

    Deterministic and cheap: reads ``BENCH_ablation.json`` and runs the
    importance tripwire against ``benchmarks/baseline_ablation.json``
    in-process instead of re-running the sweep.  Returns a null-shaped
    block when the artifacts are absent (fresh checkout mid-rebase).
    """
    from repro.obs.ablation import check_importance

    try:
        with open(ABLATION_REPORT_PATH) as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        return {"report": None}
    block = {
        "report": os.path.basename(ABLATION_REPORT_PATH),
        "settings": report.get("settings"),
        "ranking": [
            {
                "mechanism": entry["mechanism"],
                "importance": entry["importance"],
                "mean_delta_mbps": entry["mean_delta_mbps"],
            }
            for entry in report["importance"]["aggregate"]
        ],
    }
    try:
        with open(ABLATION_BASELINE_PATH) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError):
        block["tripwire"] = None
        return block
    violations = check_importance(report, baseline)
    block["tripwire"] = {"ok": not violations, "violations": violations}
    return block


def measure_speed(points: list, t1_sizes, f2_sizes, rounds: int, repeats: int) -> None:
    """Attach wall_time_s / cells_per_s to every bench point, in place."""
    runners = speed.default_cell_runners(t1_sizes, f2_sizes, rounds=rounds)
    for point in points:
        if "prefetch" in point:
            key = f"table1:{point['request_kb']}kb:prefetch={point['prefetch']}"
        else:
            key = f"figure2:{point['request_kb']}kb:{point['mode']}"
        wall = speed.time_runner(runners[key], repeats=repeats)
        point["wall_time_s"] = _round(wall)
        point["cells_per_s"] = _round(1.0 / wall, 2)


def run_bench(
    quick: bool = False, tie_check: str = "sample", repeats: int = speed.DEFAULT_REPEATS
) -> dict:
    if tie_check not in ("full", "sample"):
        raise ValueError("tie_check must be 'full' or 'sample'")
    if quick:
        t1_sizes = (64, 256, 1024)
        f2_sizes = (64, 1024)
        rounds = 8
    else:
        t1_sizes = DEFAULT_REQUEST_SIZES_KB
        f2_sizes = DEFAULT_REQUEST_SIZES_KB
        rounds = 16
    table1 = bench_table1(t1_sizes, rounds, tie_check)
    figure2 = bench_figure2(f2_sizes, rounds, tie_check)
    policies = run_policy_bench(quick=quick)
    all_points = table1 + figure2
    measure_speed(all_points, t1_sizes, f2_sizes, rounds, repeats)
    total_wall = sum(p["wall_time_s"] for p in all_points)
    speed_block = {
        "metric": "best-of-%d wall seconds per default-configuration "
                  "(no-fault, no-trace) cell run" % repeats,
        "total_wall_time_s": _round(total_wall),
        "cells_per_s": _round(len(all_points) / total_wall, 2),
    }
    return {
        "bench": "table1-figure2-policies",
        "machine": {"n_compute": 8, "n_io": 8, "block_kb": 64},
        "settings": {"rounds": rounds, "quick": quick, "tie_check": tie_check},
        "metric": "collective read bandwidth (MB/s): total bytes / "
                  "slowest rank's read-call time",
        "degraded_metric": "same workload with one raid0 spindle failed "
                           "from t=0 (RAID-3 parity reconstruction)",
        "rebuild_metric": "same workload while a rebuild_rate=0.5 copy-back "
                          "rebuild of the replaced raid0 spindle competes "
                          "for the arm and SCSI bus",
        "speed": speed_block,
        "ablation": ablation_summary(),
        "policies": policies,
        "table1": table1,
        "figure2": figure2,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer sizes/rounds (CI)")
    parser.add_argument(
        "--tie-check",
        choices=("full", "sample"),
        default="sample",
        help="run the fifo/lifo sanitizer on every cell (full) or a "
             "deterministic ~1-in-%d subset (sample, default)" % SAMPLE_MODULUS,
    )
    parser.add_argument(
        "--output",
        default=DEFAULT_OUTPUT,
        help="output path (default: repo-root BENCH_local.json); a committed "
        "BENCH_<n>.json snapshot is refused",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=speed.DEFAULT_REPEATS,
        help="wall-clock repeats per cell (best-of-N)",
    )
    args = parser.parse_args(argv)
    if committed_snapshot(args.output):
        parser.error(f"{args.output} is a committed BENCH_<n>.json snapshot; pick another --output")
    results = run_bench(quick=args.quick, tie_check=args.tie_check, repeats=args.repeats)
    with open(args.output, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    all_points = results["table1"] + results["figure2"]
    n_checked = sum(1 for p in all_points if p["tie_checked"])
    races = [p for p in all_points if p["deterministic"] is False]
    print(f"wrote {os.path.abspath(args.output)} ({len(all_points)} points)")
    for point in results["table1"]:
        bn = point["bottleneck"]
        print(
            f"  table1 {point['request_kb']:>5}KB "
            f"prefetch={'on ' if point['prefetch'] else 'off'} "
            f"{point['collective_bandwidth_mbps']:7.2f} MB/s  "
            f"degraded {point['degraded_bandwidth_mbps']:7.2f} MB/s  "
            f"rebuild {point['rebuild_window_bandwidth_mbps']:7.2f} MB/s  "
            f"bottleneck: {bn['resource'] if bn else 'n/a'}"
        )
    if races:
        print(f"TIE-ORDER RACES in {len(races)} cell(s):")
        for point in races:
            print(f"  {point}")
        return 1
    print(
        f"tie-order sanitizer: {n_checked}/{len(all_points)} cells checked "
        f"({args.tie_check}), all bit-identical under fifo/lifo"
    )
    sp = results["speed"]
    print(
        f"simulator speed: {sp['total_wall_time_s']:.2f}s wall for "
        f"{len(all_points)} cells ({sp['cells_per_s']:.2f} cells/s)"
    )
    ablation = results["ablation"]
    if ablation.get("report") and ablation.get("ranking"):
        top = ablation["ranking"][0]
        tripwire = ablation.get("tripwire")
        verdict = "not checked" if tripwire is None else ("ok" if tripwire["ok"] else "TRIPPED")
        print(
            f"ablation observatory: top mechanism {top['mechanism']} "
            f"(importance {top['importance']:+.1%}), tripwire {verdict}"
        )
    policy_cmp = results["policies"]["comparison"]
    print(
        f"policy bench: paper cells ok={policy_cmp['paper_ok']}, "
        f"strict wins={policy_cmp['strict_win_by_family']}"
    )
    if not (policy_cmp["paper_ok"] and policy_cmp["new_family_strict_win"]):
        print("POLICY BENCH ACCEPTANCE FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

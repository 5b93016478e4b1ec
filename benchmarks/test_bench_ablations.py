"""Ablation benchmarks: design-choice studies beyond the paper's tables.

Covers the paper's future-work directions (other I/O modes, more access
patterns, deeper prefetching) and the calibration-sensitive design
choices DESIGN.md calls out.
"""

from conftest import run_once

from repro.experiments.ablations import (
    check_ablation_shapes,
    run_buffering_ablation,
    run_depth_ablation,
    run_mode_ablation,
    run_multiprogramming_ablation,
    run_policy_ablation,
    run_prefetch_location_ablation,
    run_scaling_ablation,
    run_write_strategy_ablation,
)
from repro.experiments.sensitivity import check_sensitivity_shape, run_sensitivity


def test_bench_ablation_depth(benchmark, save_table):
    table = run_once(benchmark, run_depth_ablation)
    save_table("ablation_depth", table.render())
    problem = check_ablation_shapes(depth=table)
    assert problem is None, problem
    # Depth >= 2 hides more latency than the paper's one-ahead prototype
    # when the compute delay is shorter than the read time.
    bw = table.column("bw_mbps")
    assert bw[2] > 1.5 * bw[1]


def test_bench_ablation_modes(benchmark, save_table):
    table = run_once(benchmark, run_mode_ablation)
    save_table("ablation_modes", table.render())
    problem = check_ablation_shapes(modes=table)
    assert problem is None, problem
    speedups = dict(zip(table.column("mode"), table.column("speedup")))
    assert speedups["M_RECORD"] > 1.5
    assert speedups["M_ASYNC"] > 1.2
    assert speedups["M_UNIX"] == 1.0  # nothing to anticipate


def test_bench_ablation_policies(benchmark, save_table):
    table = run_once(benchmark, run_policy_ablation)
    save_table("ablation_policies", table.render())
    problem = check_ablation_shapes(policies=table)
    assert problem is None, problem
    rows = {(r[0], r[1]): r for r in table.rows}
    # The strided policy stays silent on random access, where blind
    # one-ahead wastes prefetches and loses bandwidth.
    assert rows[("random", "strided")][4] < rows[("random", "one-ahead")][4]
    assert rows[("random", "strided")][2] > rows[("random", "one-ahead")][2]


def test_bench_ablation_buffering(benchmark, save_table):
    table = run_once(benchmark, run_buffering_ablation)
    save_table("ablation_buffering", table.render())
    rows = {r[0]: r for r in table.rows}
    # Fast Path wins cold reads; the buffer cache wins re-reads.
    assert rows["fastpath"][1] >= rows["buffered"][1] * 0.95
    assert rows["buffered"][2] > 1.5 * rows["fastpath"][2]


def test_bench_ablation_prefetch_location(benchmark, save_table):
    table = run_once(benchmark, run_prefetch_location_ablation)
    save_table("ablation_prefetch_location", table.render())
    rows = {r[0]: r for r in table.rows}
    # Server readahead hides the disk only; client prefetch hides the
    # whole client-observed path and must win decisively.
    assert rows["server-readahead"][1] > 1.2 * rows["none"][1]
    assert rows["client-prefetch"][1] > 1.5 * rows["server-readahead"][1]
    # Combining both adds little over client-side alone.
    assert rows["both"][1] >= 0.9 * rows["client-prefetch"][1]


def test_bench_ablation_multiprogramming(benchmark, save_table):
    table = run_once(benchmark, run_multiprogramming_ablation)
    save_table("ablation_multiprogramming", table.render())
    rows = {r[0]: r for r in table.rows}
    alone_pf = rows["A alone, prefetch"]
    shared_pf = rows["A + B, prefetch"]
    shared_base = rows["A + B, no prefetch"]
    # Interference degrades prefetching (hits turn into partial hits)...
    assert shared_pf[3] > alone_pf[3]
    assert shared_pf[1] <= alone_pf[1] * 1.02
    # ...but prefetching still wins decisively under the same load.
    assert shared_pf[1] > 2.0 * shared_base[1]


def test_bench_ablation_write_strategies(benchmark, save_table):
    table = run_once(benchmark, run_write_strategy_ablation)
    save_table("ablation_write_strategies", table.render())
    rows = {r[0]: r for r in table.rows}
    # Write-back absorbs the burst: far faster, zero disk writes during.
    assert rows["write-back"][1] > 3.0 * rows["write-through"][1]
    assert rows["write-back"][3] == 0
    # Fast Path is at least as fast as write-through (no cache copies).
    assert rows["fastpath"][1] >= 0.95 * rows["write-through"][1]


def test_bench_sensitivity(benchmark, save_table):
    table = run_once(benchmark, run_sensitivity)
    save_table("sensitivity", table.render())
    problem = check_sensitivity_shape(table)
    assert problem is None, problem
    # The paper's SCSI-16 remark: 4x the I/O path gives a large (if
    # sub-linear, due to software floors) baseline improvement.
    base = table.column("bw_iobound_mbps")
    scales = table.column("io_scale")
    assert base[scales.index(4.0)] > 1.5 * base[scales.index(1.0)]


def test_bench_ablation_scaling(benchmark, save_table):
    table = run_once(benchmark, run_scaling_ablation)
    save_table("ablation_scaling", table.render())
    base = table.column("bw_no_prefetch")
    # Baseline bandwidth scales with compute nodes until I/O saturates.
    assert base[-1] > base[0] * 4
    # Prefetching helps until the 8 I/O nodes are the bottleneck.
    speedups = table.column("speedup")
    assert speedups[0] > 2.0
    assert speedups[-1] < speedups[0]

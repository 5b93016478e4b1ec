"""Host-cost and simulated-bandwidth benchmark of the Paragon PFS simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-read --seed 1 --seconds 22 --trace 0
    python3 perfbench/run.py --capture

One process, no threads, no pool.  A run builds the workload's cells
(``cells.py``), shuffles their order with ``--seed``, and runs whole
passes over them: one untimed warm-up pass, then timed passes until
``--seconds`` have gone by and at least ``MIN_TIMED_SAMPLES`` cells were
timed.  With ``--trace 0`` the warm-up pass runs each cell's set-up and
run under ``tracemalloc`` for ``cell_peak_mb``, the largest peak of
memory one cell allocates.  Every cell of every pass is checked: it
fails if it raises, if ``Machine.verify()`` reports a problem, or, for
cells without a seeded fault plan, if its fingerprint differs from
``expected.json``.

Host times are rescaled to a nominal host speed (``hostclock.py``);
raw seconds and the reference loop's own spread go to the run record,
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes run under ``cProfile`` and prints the
per-layer metrics: exact work counts from the monitor counters, the
kernel's event counter and profiler call counts, and self time per
``repro`` package.  Every count must repeat exactly in every pass of a
run, or the run fails.  Spans around each cell's set-up, run and check
are kept in memory and written to ``perfbench/out/spans-...json``.

``--capture`` reruns every fixed cell under the ``fifo`` and ``lifo``
tie-breaks, requires both to agree and the cells of
``tests/golden/bench3_fingerprints.json`` and
``tests/golden/rebuild_fingerprint.json`` to match, and rewrites
``expected.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``aa_report.py`` runs this script as two alternating sides of the same
tree and prints the spread each metric's bound was set from.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import math
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import hostclock
from layers import Attributor, layer_total

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")
OUT_DIR = os.path.join(HERE, "out")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

#: p90 is reported only with at least ten samples beyond it.
MIN_TIMED_SAMPLES = 100
#: Fresh interpreters timed for ``setup_s`` (after one untimed).
SETUP_PROBES = 9
#: Stop starting passes after this long, whatever ``--seconds`` says.
WALL_LIMIT_S = 150.0
MB = 1024 * 1024


@dataclass
class Sample:
    """One cell of one pass."""

    key: str
    pass_index: int
    traced: bool
    fixed: bool
    build_s: float = 0.0
    run_s: float = 0.0
    check_s: float = 0.0
    reference_s: float = 0.0
    bytes: int = 0
    call_s: float = 0.0
    peak_bytes: int = 0
    counts: Optional[dict] = None
    failure: Optional[str] = None
    scaled_run_s: float = 0.0
    scaled_build_s: float = 0.0
    scaled_check_s: float = 0.0


@dataclass
class TracedPass:
    """Rescaled self seconds by layer, and call counts, of one traced pass."""

    seconds: Dict[str, float]
    calls: Dict[str, int]


@dataclass
class Bench:
    """The samples, spans and repeat checks of one run."""

    cells: list
    expected: Dict[str, str]
    samples: List[Sample] = field(default_factory=list)
    spans: List[dict] = field(default_factory=list)
    traced_passes: List[TracedPass] = field(default_factory=list)
    repeat_errors: List[str] = field(default_factory=list)
    first_counts: Dict[str, dict] = field(default_factory=dict)
    record_spans: bool = False
    started: float = field(default_factory=time.perf_counter)
    reference: hostclock.ReferenceLoop = field(default_factory=hostclock.ReferenceLoop)

    def run_pass(
        self, pass_index: int, traced: bool, attributor=None, memory: bool = False
    ) -> None:
        """Run every cell once; *traced* under cProfile, *memory* under
        tracemalloc (which slows allocation, so only in an untimed pass)."""
        profiler = cProfile.Profile() if traced else None
        first_sample = len(self.samples)
        for cell in self.cells:
            # Taken before the cell, after the previous cell's machine is
            # freed and collected, so no cell inherits another's garbage.
            reference_s = self.reference.time()
            sample = self.run_cell(cell, pass_index, profiler, memory)
            sample.reference_s = reference_s
            self.samples.append(sample)
        if profiler is None:
            return
        pass_samples = self.samples[first_sample:]
        seconds, calls = attributor.self_time(profiler)
        reference = statistics.fmean(s.reference_s for s in pass_samples)
        scaled = {k: hostclock.rescale(v, reference) for k, v in seconds.items()}
        if self.traced_passes and calls != self.traced_passes[0].calls:
            diff = sorted(
                k for k in set(calls) | set(self.traced_passes[0].calls)
                if calls.get(k) != self.traced_passes[0].calls.get(k)
            )
            self.repeat_errors.append(f"pass {pass_index}: profiler call counts differ in {diff}")
        self.traced_passes.append(TracedPass(scaled, calls))

    def run_cell(self, cell, pass_index: int, profiler, memory: bool) -> Sample:
        sample = Sample(cell.key, pass_index, profiler is not None, cell.fixed)
        cell_id = f"{pass_index}:{cell.key}"
        t0 = time.perf_counter()
        if memory:
            # From here tracemalloc sees only this cell's allocations.
            tracemalloc.start()
        try:
            prepared = cell.build("fifo")
            t1 = time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                reports = prepared.run()
            finally:
                if profiler is not None:
                    profiler.disable()
            t2 = time.perf_counter()
            sample.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            machine = prepared.machine
            sample.failure = self.check(cell, prepared, machine, reports)
            sample.counts = work_counts(machine)
            sample.bytes = sum(r.total_bytes for r in reports)
            sample.call_s = sum(r.read_time_s for r in reports)
        except Exception:
            sample.failure = traceback.format_exc(limit=-3)
            t1 = t2 = time.perf_counter()
        tracemalloc.stop()  # if the cell raised while it was on
        t3 = time.perf_counter()
        sample.build_s, sample.run_s, sample.check_s = t1 - t0, t2 - t1, t3 - t2
        if self.record_spans:
            for name, parent, start, end in (
                ("cell", None, t0, t3),
                ("setup", cell_id, t0, t1),
                ("run", cell_id, t1, t2),
                ("check", cell_id, t2, t3),
            ):
                self.spans.append(
                    {
                        "cell": cell_id,
                        "name": name,
                        "parent": parent,
                        "traced": sample.traced,
                        "start_s": start - self.started,
                        "end_s": end - self.started,
                    }
                )
        if sample.counts is not None:
            first = self.first_counts.setdefault(cell.key, sample.counts)
            if first != sample.counts:
                self.repeat_errors.append(f"{cell_id}: work counts differ from the first pass")
            # Equal counts share one dict, so that the samples kept for
            # the run do not grow the process by a copy per pass.
            sample.counts = first
        return sample

    def check(self, cell, prepared, machine, reports) -> Optional[str]:
        problems = machine.verify()
        if problems:
            return "verify: " + "; ".join(problems[:3])
        if cell.fixed:
            got = fingerprint(prepared, machine, reports)
            want = self.expected.get(cell.key)
            if got != want:
                return f"fingerprint {got} != expected {want}"
        return None

    def rescale_samples(self) -> None:
        references = [s.reference_s for s in self.samples]
        for i, s in enumerate(self.samples):
            local = hostclock.local_reference(references, i)
            s.scaled_run_s = hostclock.rescale(s.run_s, local)
            s.scaled_build_s = hostclock.rescale(s.build_s, local)
            s.scaled_check_s = hostclock.rescale(s.check_s, local)


def fingerprint(prepared, machine, reports) -> str:
    """Report fingerprints, plus the stored content of written files."""
    from repro.analysis.sanitizers import report_fingerprint

    parts = [report_fingerprint(r) for r in reports]
    for name in prepared.stored_files:
        pfs_file = prepared.mount.lookup(name)
        digest = hashlib.sha256()
        for io_index in pfs_file.attrs.stripe_group:
            ufs = machine.ufses[io_index]
            size = ufs.inode(pfs_file.file_id).size_bytes
            digest.update(ufs.content(pfs_file.file_id, 0, size).to_bytes())
        parts.append(digest.hexdigest())
    if len(parts) == 1:
        return parts[0]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def work_counts(machine) -> dict:
    """Deterministic work counts of one cell (must repeat exactly)."""
    counters = {
        name[len("counter.") :]: value
        for name, value in machine.obs.snapshot().items()
        if name.startswith("counter.")
    }
    return {
        "events": machine.env._eid,
        "counters": counters,
        "raid_busy_s": sum(a.busy_s for a in machine.arrays),
        "raid_arrays": len(machine.arrays),
        "sim_s": machine.env.now,
    }


def counter_sum(counters: dict, pattern: str) -> float:
    regex = re.compile(pattern)
    return sum(v for k, v in counters.items() if regex.fullmatch(k))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def p90(values: List[float]) -> float:
    """Nearest-rank p90; needs at least ten samples beyond it."""
    ordered = sorted(values)
    rank = -(-9 * len(ordered) // 10)
    if len(ordered) - rank < 10:
        raise ValueError(f"p90 of {len(ordered)} samples has fewer than ten beyond it")
    return ordered[rank - 1]


def setup_probe(workload: str) -> dict:
    """Cold set-up of *workload* in a fresh interpreter (``setup_probe.py``)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), "--workload", workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(bench: Bench, timed: List[Sample], probes: List[dict]) -> dict:
    scaled_ms = [s.scaled_run_s * 1e3 for s in timed]
    raw_ms = [s.run_s * 1e3 for s in timed]
    # Cells with a seeded fault plan are left out, so that the figure
    # is the same for every seed and moves only when the model does.
    first_pass = [s for s in bench.samples if s.pass_index == 0 and s.fixed]
    setups = [hostclock.rescale_setup(p["raw_s"], p["numpy_import_s"]) for p in probes]
    total_mb = sum(s.bytes for s in timed) / MB
    return {
        "work_mb_per_host_s": (
            "MB/s",
            total_mb / sum(s.scaled_run_s for s in timed),
            total_mb / sum(s.run_s for s in timed),
        ),
        "cell_ms_p50": ("ms", statistics.median(scaled_ms), statistics.median(raw_ms)),
        "cell_ms_p90": ("ms", p90(scaled_ms), p90(raw_ms)),
        "setup_s": (
            "s",
            statistics.median(setups),
            statistics.median(p["raw_s"] for p in probes),
        ),
        "cell_peak_mb": ("MiB", max(s.peak_bytes for s in bench.samples) / MB, None),
        "sim_mbps": (
            "MB/s",
            # fsum rounds once, so the order the seed gave the cells
            # leaves no trace in the last bits.
            math.fsum(s.bytes for s in first_pass) / MB / math.fsum(s.call_s for s in first_pass),
            None,
        ),
    }


def per_layer(bench: Bench, untraced: List[Sample], traced: List[Sample]) -> dict:
    n = len(traced)
    # Work counts repeat exactly in every pass (the repeat guard checks
    # that), so they come from one pass: float sums over a number of
    # passes that varies from run to run would differ in the last bits.
    one_pass = [s for s in traced if s.pass_index == traced[0].pass_index]
    counters = [s.counts["counters"] for s in one_pass]
    calls = bench.traced_passes[0].calls

    def per_cell(pattern: str) -> float:
        return sum(counter_sum(c, pattern) for c in counters) / len(one_pass)

    seconds: Dict[str, float] = {}
    for tp in bench.traced_passes:
        for k, v in tp.seconds.items():
            seconds[k] = seconds.get(k, 0.0) + v

    def self_ms(prefix: str) -> float:
        return layer_total(seconds, prefix) * 1e3 / n

    events = sum(s.counts["events"] for s in one_pass)
    untraced_events = sum(s.counts["events"] for s in untraced)
    busy = sum(s.counts["raid_busy_s"] for s in one_pass)
    capacity = sum(s.counts["raid_arrays"] * s.counts["sim_s"] for s in one_pass)
    untraced_passes = len({s.pass_index for s in untraced})
    untraced_per_pass = sum(s.scaled_run_s for s in untraced) / untraced_passes
    traced_per_pass = sum(s.scaled_run_s for s in traced) / len(bench.traced_passes)
    useful = per_cell(r"prefetch\.(hits|partial_hits)")
    bcache_hits = per_cell(r"bcache\d+\.hits")
    bcache_lookups = per_cell(r"bcache\d+\.(hits|misses|collapsed_misses)")
    return {
        "sim.events_per_cell": ("count", events / len(one_pass)),
        "sim.self_ms_per_cell": ("ms", self_ms("sim")),
        "sim.host_us_per_event": (
            "us",
            sum(s.scaled_run_s for s in untraced) * 1e6 / untraced_events,
        ),
        "hardware.mesh.self_ms_per_cell": ("ms", self_ms("hardware.mesh")),
        "hardware.mesh.messages_per_cell": ("count", per_cell(r"mesh\.messages")),
        "hardware.raid.self_ms_per_cell": ("ms", self_ms("hardware.raid")),
        "hardware.raid.requests_per_cell": ("count", per_cell(r"raid\d+\.(reads|writes)")),
        "hardware.raid.busy_frac": ("frac", ratio(busy, capacity)),
        "hardware.scsi.self_ms_per_cell": ("ms", self_ms("hardware.scsi")),
        "paragonos.rpc.self_ms_per_cell": ("ms", self_ms("paragonos.rpc")),
        "paragonos.rpc.calls_per_cell": ("count", per_cell(r"rpc\.calls")),
        "paragonos.rpc.retry_frac": (
            "frac",
            ratio(per_cell(r"rpc\.retries"), per_cell(r"rpc\.calls")),
        ),
        "paragonos.art.submitted_per_cell": ("count", per_cell(r"art\.submitted\..+")),
        "paragonos.buffercache.hit_frac": ("frac", ratio(bcache_hits, bcache_lookups)),
        "ufs.self_ms_per_cell": ("ms", self_ms("ufs")),
        "ufs.content_calls_per_cell": ("count", calls.get("repro.ufs.data", 0) / len(one_pass)),
        "pfs.self_ms_per_cell": ("ms", self_ms("pfs")),
        "pfs.client.reads_per_cell": ("count", per_cell(r"pfs_client\.\w+_reads")),
        "pfs.server.requests_per_cell": (
            "count",
            per_cell(r"pfs_server\.\d+\.(reads|writes)"),
        ),
        "core.self_ms_per_cell": ("ms", self_ms("core")),
        "core.prefetch.issued_per_cell": ("count", per_cell(r"prefetch\.issued")),
        "core.prefetch.useful_frac": (
            "frac",
            ratio(useful, per_cell(r"prefetch\.issued")),
        ),
        "faults.self_ms_per_cell": ("ms", self_ms("faults")),
        "faults.audited_per_cell": ("count", per_cell(r"faults\.audited\..+")),
        "faults.replays_per_cell": ("count", per_cell(r"rpc\.replays")),
        "obs.self_ms_per_cell": ("ms", self_ms("obs")),
        "machine.build_ms": (
            "ms",
            statistics.fmean(s.scaled_build_s for s in untraced) * 1e3,
        ),
        "bench.check_ms_per_cell": (
            "ms",
            statistics.fmean(s.scaled_check_s for s in untraced) * 1e3,
        ),
        "bench.trace_overhead_frac": ("frac", traced_per_pass / untraced_per_pass - 1.0),
    }


def measure(args) -> int:
    import cells

    expected = load_expected()
    cell_list = cells.WORKLOADS[args.workload](args.seed)
    random.Random(args.seed).shuffle(cell_list)
    bench = Bench(cell_list, expected, record_spans=bool(args.trace))
    attributor = Attributor(os.path.join(SRC, "repro"), HERE)
    probes: List[dict] = []

    def probe_setup() -> None:
        # One probe after each pass, so that the probes are spread over
        # the run rather than taken at one moment.
        if not args.trace and len(probes) < SETUP_PROBES:
            probes.append(setup_probe(args.workload))

    if not args.trace:
        setup_probe(args.workload)  # untimed: compiles the bytecode caches
    bench.run_pass(0, traced=False, memory=not args.trace)
    probe_setup()
    start = time.perf_counter()
    pass_index = 1
    while True:
        traced = bool(args.trace) and pass_index % 2 == 1
        bench.run_pass(pass_index, traced, attributor)
        probe_setup()
        pass_index += 1
        elapsed = time.perf_counter() - start
        timed = [s for s in bench.samples if s.pass_index > 0 and not s.traced]
        if args.trace:
            enough = len(bench.traced_passes) >= 2 and len(timed) >= len(cell_list)
        else:
            enough = len(timed) >= MIN_TIMED_SAMPLES
        if (elapsed >= args.seconds and enough) or elapsed >= WALL_LIMIT_S:
            break
    while not args.trace and len(probes) < SETUP_PROBES:
        probe_setup()
    bench.rescale_samples()

    timed = [s for s in bench.samples if s.pass_index > 0 and not s.traced]
    traced = [s for s in bench.samples if s.traced]
    failures = [s for s in bench.samples if s.failure]
    problems = [f"{s.pass_index}:{s.key}: {s.failure}" for s in failures]
    problems += bench.repeat_errors
    if args.workload == "fault-recovery":
        golden_rebuild = golden_rebuild_mismatch(expected)
        if golden_rebuild:
            problems.append(golden_rebuild)
    metrics = {}
    raw = {}
    try:
        if failures:
            raise ValueError("failed cells leave the metrics undefined")
        if args.trace:
            for name, (unit, value) in per_layer(bench, timed, traced).items():
                metrics[name] = {"value": value, "unit": unit}
        else:
            for name, (unit, value, raw_value) in end_to_end(bench, timed, probes).items():
                metrics[name] = {"value": value, "unit": unit}
                raw[name] = raw_value
    except (ValueError, ZeroDivisionError) as exc:
        problems.append(f"metrics: {exc}")

    references = [s.reference_s for s in bench.samples]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": pass_index,
        "timed_samples": len(timed),
        "traced_samples": len(traced),
        "metrics": metrics,
        "raw_unscaled": raw,
        "setup_numpy_import_s": (
            statistics.median(p["numpy_import_s"] for p in probes) if probes else None
        ),
        # For information: the whole process, with the interpreter and
        # the reference loop's table.
        "process_maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_loop": {
            "nominal_s": hostclock.NOMINAL_REF_S,
            "median_s": statistics.median(references),
            "min_s": min(references),
            "max_s": max(references),
            "iqr_over_median": hostclock.spread(references),
        },
        "cells": cell_summary(bench),
        "problems": problems,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if bench.spans:
        with open(os.path.join(OUT_DIR, f"spans-{stem}.json"), "w") as fh:
            json.dump(bench.spans, fh)

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    ref = record["reference_loop"]
    print(
        f"{args.workload} seed={args.seed}: {pass_index} passes, {len(timed)} timed cells, "
        f"{len(traced)} traced; reference loop median {ref['median_s'] * 1e3:.3f} ms "
        f"(IQR/median {ref['iqr_over_median']:.3f})"
    )
    for name, metric in metrics.items():
        extra = f"  (raw {raw[name]:.6g})" if raw.get(name) is not None else ""
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}{extra}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(bench.samples),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def cell_summary(bench: Bench) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for cell in bench.cells:
        mine = [s for s in bench.samples if s.key == cell.key and s.pass_index > 0 and not s.traced]
        counts = bench.first_counts.get(cell.key)
        out[cell.key] = {
            "run_ms_median": statistics.median(s.scaled_run_s for s in mine) * 1e3,
            "raw_run_ms_median": statistics.median(s.run_s for s in mine) * 1e3,
            "events": counts["events"] if counts else None,
        }
    return out


def load_expected() -> Dict[str, str]:
    try:
        with open(EXPECTED_PATH) as fh:
            return json.load(fh)["cells"]
    except FileNotFoundError:
        return {}


def golden_rebuild_mismatch(expected: Dict[str, str]) -> Optional[str]:
    with open(os.path.join(GOLDEN_DIR, "rebuild_fingerprint.json")) as fh:
        golden = json.load(fh)["fingerprint"]
    if expected.get("rebuild:canonical") != golden:
        return "expected.json rebuild:canonical differs from tests/golden/rebuild_fingerprint.json"
    return None


def capture() -> int:
    """Rewrite expected.json from fifo and lifo runs of every fixed cell."""
    import cells

    def both(cell) -> Optional[str]:
        prints = set()
        for tie_break in ("fifo", "lifo"):
            prepared = cell.build(tie_break)
            reports = prepared.run()
            machine = prepared.machine
            problems = machine.verify()
            if problems:
                print(f"{cell.key} ({tie_break}): {problems}", file=sys.stderr)
                return None
            prints.add(fingerprint(prepared, machine, reports))
        if len(prints) != 1:
            print(f"{cell.key}: fifo and lifo differ", file=sys.stderr)
            return None
        return prints.pop()

    ok = True
    with open(os.path.join(GOLDEN_DIR, "bench3_fingerprints.json")) as fh:
        bench3 = json.load(fh)["cells"]
    for cell in cells.golden_bench3_cells():
        got = both(cell)
        if got != bench3[cell.key]:
            print(f"golden bench3 {cell.key}: {got} != {bench3[cell.key]}", file=sys.stderr)
            ok = False
    captured: Dict[str, str] = {}
    for name, make in cells.WORKLOADS.items():
        for cell in make(0):
            if cell.fixed:
                got = both(cell)
                ok = ok and got is not None
                captured[cell.key] = got
                print(f"{name:15s} {cell.key:40s} {got}")
    mismatch = golden_rebuild_mismatch(captured)
    if mismatch:
        print(mismatch, file=sys.stderr)
        ok = False
    if not ok:
        return 1
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(
            {
                "_comment": "Fingerprints of every fixed-plan cell, identical under fifo and "
                "lifo. Regenerate with: python3 perfbench/run.py --capture",
                "cells": dict(sorted(captured.items())),
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("paper-read", "write-mix", "fault-recovery"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture", action="store_true", help="rewrite expected.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no simulator source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.capture:
        return capture()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python
"""Trace-driven evaluation: record once, replay under both configurations.

The reproduction band for this paper calls for trace-driven simulation;
this example shows the machinery end to end:

1. Run a "production" application (mixed sequential reads with varying
   compute phases) and record every I/O call per rank.
2. Replay the recorded trace -- same offsets, same inter-arrival
   compute gaps -- through a fresh machine without prefetching, and
   again with it.
3. Compare the replays and print per-rank prefetch statistics.

Run:  python examples/trace_replay.py
"""

from repro import (
    IOMode,
    Machine,
    MachineConfig,
    PFSConfig,
    Prefetcher,
)
from repro.workloads.traces import TraceRecorder, TraceReplayer, load_trace

KB = 1024
MB = 1024 * 1024

NPROCS = 8
FILE_BYTES = 32 * MB


def build_machine():
    machine = Machine(MachineConfig(n_compute=NPROCS, n_io=8))
    mount = machine.mount("/pfs", PFSConfig(stripe_unit=64 * KB))
    machine.create_file(mount, "data", FILE_BYTES)
    return machine, mount


def application(recorder, env):
    """The 'production' app: phases of small and large reads with
    data-dependent compute bursts."""
    # Phase 1: scan header blocks quickly.
    for _ in range(4):
        yield from recorder.read(64 * KB)
    # Phase 2: heavy compute per large record.
    for _ in range(6):
        yield from recorder.handle.node.compute(0.08)
        yield from recorder.read(128 * KB)
    # Phase 3: lighter compute, medium records.
    for _ in range(6):
        yield from recorder.handle.node.compute(0.03)
        yield from recorder.read(64 * KB)


def record_trace():
    machine, mount = build_machine()
    recorders = []

    def run_rank(rank):
        handle = yield from machine.clients[rank].open(
            mount, "data", IOMode.M_RECORD, rank=rank, nprocs=NPROCS
        )
        recorder = TraceRecorder(handle)
        recorders.append(recorder)
        yield from application(recorder, machine.env)
        yield from handle.close()

    for rank in range(NPROCS):
        machine.spawn(run_rank(rank))
    machine.run()

    lines = [line for r in recorders for line in r.dump()]
    print(f"recorded {len(lines)} I/O events across {NPROCS} ranks")
    return lines


def replay(lines, prefetch: bool):
    machine, mount = build_machine()
    events = load_trace(lines)
    handles = []

    def run_rank(rank):
        prefetcher = Prefetcher() if prefetch else None
        handle = yield from machine.clients[rank].open(
            mount,
            "data",
            IOMode.M_RECORD,
            rank=rank,
            nprocs=NPROCS,
            prefetcher=prefetcher,
        )
        handles.append(handle)
        replayer = TraceReplayer(handle, events, honour_gaps=True)
        yield from replayer.replay()
        yield from handle.close()

    for rank in range(NPROCS):
        machine.spawn(run_rank(rank))
    machine.run()

    elapsed = machine.env.now
    read_time = max(h.stats.read_call_time for h in handles)
    total = sum(h.stats.bytes_read for h in handles)
    return elapsed, total / read_time / MB, handles


def main() -> None:
    print(__doc__)
    lines = record_trace()

    base_elapsed, base_bw, _ = replay(lines, prefetch=False)
    pf_elapsed, pf_bw, pf_handles = replay(lines, prefetch=True)

    print(f"\nreplay without prefetching: {base_elapsed:6.2f}s, read BW {base_bw:6.2f} MB/s")
    print(f"replay with prefetching:    {pf_elapsed:6.2f}s, read BW {pf_bw:6.2f} MB/s")
    print(f"observed-bandwidth gain:    {pf_bw / base_bw:6.2f}x\n")

    print("per-rank prefetch statistics:")
    for handle in sorted(pf_handles, key=lambda h: h.rank):
        print(f"  rank {handle.rank}: {handle.prefetcher.stats.summary()}")


if __name__ == "__main__":
    main()

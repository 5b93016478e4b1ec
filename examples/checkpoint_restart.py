#!/usr/bin/env python
"""Checkpoint / restart -- exercising the PFS write path and prefetched
restart reads together.

A long-running simulation on 8 compute nodes periodically checkpoints
its distributed state (M_RECORD writes: each node writes its own record
slot, no coordination messages) and later restarts, reading the
checkpoint back.  The restart read alternates state-rebuild computation
with record reads -- exactly the balanced access pattern where the
paper's prefetcher shines -- so restart time drops substantially with
prefetching enabled.

Run:  python examples/checkpoint_restart.py
"""

from repro import (
    IOMode,
    Machine,
    MachineConfig,
    PFSConfig,
    Prefetcher,
)
from repro.ufs.data import SyntheticData

KB = 1024
MB = 1024 * 1024

NPROCS = 8
RECORD = 128 * KB          # per-node state slice per checkpoint step
STEPS = 8                  # checkpoint records per node
REBUILD_S = 0.08           # computation to rebuild state per record


def build():
    machine = Machine(MachineConfig(n_compute=NPROCS, n_io=8))
    mount = machine.mount("/ckpt", PFSConfig(stripe_unit=64 * KB))
    machine.create_file(mount, "checkpoint", 0)
    return machine, mount


def checkpoint(machine, mount):
    """Phase 1: all nodes write their state, step by step."""
    handles = [None] * NPROCS

    def writer(rank):
        handle = yield from machine.clients[rank].open(
            mount, "checkpoint", IOMode.M_RECORD, rank=rank, nprocs=NPROCS
        )
        handles[rank] = handle
        for step in range(STEPS):
            # Simulated state: deterministic content per (rank, step).
            state = SyntheticData(rank * 1000 + step, 0, RECORD)
            yield from handle.node.compute(0.02)  # produce the state
            yield from handle.write(state)
        yield from handle.close()

    t0 = machine.env.now
    for rank in range(NPROCS):
        machine.spawn(writer(rank))
    machine.run()
    return machine.env.now - t0


def restart(machine, mount, prefetch: bool):
    """Phase 2: read the checkpoint back, rebuilding state per record."""
    handles = [None] * NPROCS

    def reader(rank):
        prefetcher = Prefetcher() if prefetch else None
        handle = yield from machine.clients[rank].open(
            mount,
            "checkpoint",
            IOMode.M_RECORD,
            rank=rank,
            nprocs=NPROCS,
            prefetcher=prefetcher,
        )
        handles[rank] = handle
        for step in range(STEPS):
            data = yield from handle.read(RECORD)
            expected = SyntheticData(rank * 1000 + step, 0, RECORD)
            assert data == expected, f"corrupt restart at rank {rank} step {step}"
            yield from handle.node.compute(REBUILD_S)  # rebuild state
        yield from handle.close()

    t0 = machine.env.now
    for rank in range(NPROCS):
        machine.spawn(reader(rank))
    machine.run()
    return machine.env.now - t0, handles


def main() -> None:
    print(__doc__)
    machine, mount = build()
    t_ckpt = checkpoint(machine, mount)
    total = NPROCS * STEPS * RECORD / MB
    print(f"checkpoint: {total:.0f}MB written in {t_ckpt:.2f}s " f"({total / t_ckpt:.2f} MB/s)\n")

    t_cold, _ = restart(machine, mount, prefetch=False)
    print(f"restart without prefetching: {t_cold:6.2f}s")

    t_warm, handles = restart(machine, mount, prefetch=True)
    pf = handles[0].prefetcher.stats
    for h in handles[1:]:
        pf = pf.merge(h.prefetcher.stats)
    print(f"restart with prefetching:    {t_warm:6.2f}s "
          f"({(1 - t_warm / t_cold):.0%} faster; {pf.summary()})")
    print(
        "\nEvery record was verified byte-identical to what was written --\n"
        "prefetching changes timing, never data.  The M_RECORD layout means\n"
        "each node's next record is predictable, so restart reads overlap\n"
        "with the state rebuild computation."
    )
    assert t_warm < t_cold


if __name__ == "__main__":
    main()

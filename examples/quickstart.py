#!/usr/bin/env python
"""Quickstart: does prefetching help my application?

Builds the paper's machine (8 compute nodes, 8 I/O nodes, 64KB
file-system blocks), runs a balanced parallel read workload -- each node
reads 64KB records of a shared 32MB file in M_RECORD mode with 50ms of
computation between reads -- once without and once with the
one-request-ahead prefetcher, and reports the paper's collective read
bandwidth metric plus the prefetch hit statistics.

Run:  python examples/quickstart.py
"""

from repro import (
    CollectiveReadWorkload,
    IOMode,
    Machine,
    MachineConfig,
    PFSConfig,
    Prefetcher,
)

KB = 1024
MB = 1024 * 1024


def run(prefetch: bool) -> None:
    # A fresh machine per configuration: simulations are deterministic,
    # so the comparison is exact.
    machine = Machine(MachineConfig(n_compute=8, n_io=8))
    mount = machine.mount("/pfs", PFSConfig(stripe_unit=64 * KB))
    machine.create_file(mount, "data", 32 * MB)

    workload = CollectiveReadWorkload(
        machine,
        mount,
        "data",
        request_size=64 * KB,
        compute_delay=0.05,  # 50 ms of computation per record
        iomode=IOMode.M_RECORD,
        prefetcher_factory=(
            (lambda rank: Prefetcher()) if prefetch else None
        ),
    )
    result = workload.run()
    report = result.report

    label = "with prefetching" if prefetch else "without prefetching"
    print(f"--- {label} ---")
    print(f"  collective read bandwidth: {report.collective_bandwidth_mbps:8.2f} MB/s")
    print(f"  wall-clock (simulated):    {result.elapsed_s:8.2f} s")
    print(f"  mean read access time:     {report.mean_read_access_time_s * 1000:8.2f} ms")
    print(f"  per-node balance (min/max):{report.balanced:8.2f}")
    if report.prefetch is not None:
        print(f"  prefetch: {report.prefetch.summary()}")
    print()


def main() -> None:
    print(__doc__)
    run(prefetch=False)
    run(prefetch=True)
    print(
        "With computation to hide the disk latency behind, prefetching\n"
        "turns most reads into buffer hits and the observed read\n"
        "bandwidth rises by several x -- exactly the paper's Figure 4."
    )


if __name__ == "__main__":
    main()

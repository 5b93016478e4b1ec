#!/usr/bin/env python
"""An out-of-core iterative solver -- the workload the paper's intro
motivates ("large scale scientific computations ... require processing
very large quantities of data").

The application sweeps a matrix too large for memory: each of the 8
compute nodes repeatedly reads its row-block of the current panel
(M_RECORD mode distributes panels across nodes), computes on it, and
moves to the next panel.  Per-panel compute time is proportional to the
panel size, so the I/O:compute balance -- and therefore the prefetching
benefit -- depends on the arithmetic intensity.

The example sweeps arithmetic intensity (seconds of compute per MB
read) and shows where prefetching starts paying: exactly when compute
per panel exceeds the panel read time, the paper's section 4.2 story.

Run:  python examples/out_of_core_solver.py
"""

from repro import (
    IOMode,
    Machine,
    MachineConfig,
    PFSConfig,
    Prefetcher,
)
from repro.workloads import CollectiveReadWorkload

KB = 1024
MB = 1024 * 1024

MATRIX_BYTES = 64 * MB  # the out-of-core matrix (one sweep reads it all)
PANEL_BYTES = 128 * KB  # each node's row-block of one panel


def sweep(intensity_s_per_mb: float, prefetch: bool) -> tuple:
    """One full matrix sweep; returns (sweep_time_s, bandwidth_mbps)."""
    machine = Machine(MachineConfig(n_compute=8, n_io=8))
    mount = machine.mount("/pfs", PFSConfig(stripe_unit=64 * KB))
    machine.create_file(mount, "matrix", MATRIX_BYTES)

    compute_per_panel = intensity_s_per_mb * (PANEL_BYTES / MB)
    workload = CollectiveReadWorkload(
        machine,
        mount,
        "matrix",
        request_size=PANEL_BYTES,
        compute_delay=compute_per_panel,
        iomode=IOMode.M_RECORD,
        prefetcher_factory=((lambda rank: Prefetcher()) if prefetch else None),
    )
    result = workload.run()
    return result.elapsed_s, result.report.collective_bandwidth_mbps


def main() -> None:
    print(__doc__)
    header = (
        f"{'compute (s/MB)':>15} {'sweep noPF (s)':>15} {'sweep PF (s)':>13} "
        f"{'saved':>7} {'read BW PF (MB/s)':>18}"
    )
    print(header)
    print("-" * len(header))
    crossover = None
    for intensity in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
        t_base, _ = sweep(intensity, prefetch=False)
        t_pf, bw_pf = sweep(intensity, prefetch=True)
        saved = 1.0 - t_pf / t_base
        if crossover is None and saved > 0.10:
            crossover = intensity
        print(f"{intensity:>15.2f} {t_base:>15.2f} {t_pf:>13.2f} " f"{saved:>6.0%} {bw_pf:>18.2f}")
    print()
    if crossover is not None:
        print(
            f"Prefetching starts saving wall-clock once compute reaches "
            f"~{crossover} s/MB:\nthe panel read (~0.1 s) then hides "
            f"entirely behind the computation, so the solver\nbecomes "
            f"compute-bound instead of I/O-bound."
        )
    else:
        print("Prefetching never paid off -- the workload is I/O bound throughout.")


if __name__ == "__main__":
    main()

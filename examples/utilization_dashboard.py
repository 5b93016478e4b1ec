#!/usr/bin/env python
"""Which resource fills up first?  A utilization dashboard for Table 1.

Re-runs Table 1 points around the paper's 160->224 KB crossover -- the
request size where prefetching flips from a slight loss to a clear win
-- and prints, for each size:

- the prefetch on/off bandwidth ratio (the Table 1 cell),
- the bottleneck report (busiest resource and its busy fraction), read
  from the components' busy-seconds by ``Machine.bottleneck_report()``.

The verdicts tell the crossover's story: at every size the RAID disks
are the bottleneck (the mesh and CPUs idle), but below the crossover the
per-request stripe touches few disks per interval, so a prefetch stream
competes with demand reads for the same spindles and only adds queueing.
Past the crossover each request spans the full stripe group, the disks
sit pinned near 100% either way, and the prefetcher's overlap is free.

Run:  python examples/utilization_dashboard.py
"""

from repro.experiments.common import run_collective, scaled_file_size

KB = 1024

#: Table 1 sizes bracketing the paper's 160->224 KB crossover.
REQUEST_SIZES_KB = (64, 128, 160, 224, 512)


def main() -> None:
    print("Table 1 crossover, instrumented (8 compute / 8 I/O nodes)")
    print("=" * 57)
    for size_kb in REQUEST_SIZES_KB:
        request = size_kb * KB
        file_size = scaled_file_size(request)
        off = run_collective(request_size=request, file_size=file_size, prefetch=False)
        on = run_collective(
            request_size=request,
            file_size=file_size,
            prefetch=True,
            keep_machine=True,
        )
        ratio = off.collective_bandwidth_mbps and (
            on.collective_bandwidth_mbps / off.collective_bandwidth_mbps
        )
        verdict = "prefetch wins" if ratio > 1.0 else "prefetch loses"
        print(
            f"\n--- request {size_kb} KB: "
            f"{off.collective_bandwidth_mbps:.2f} MB/s off, "
            f"{on.collective_bandwidth_mbps:.2f} MB/s on "
            f"(ratio {ratio:.2f}, {verdict}) ---"
        )
        print(on.machine.bottleneck_report().describe())


if __name__ == "__main__":
    main()

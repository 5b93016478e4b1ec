"""Figure 2: read performance of the PFS I/O modes.

Paper: "These results were obtained on a Paragon with 8 compute nodes
and 8 I/O nodes, with all compute nodes reading a single shared file.
[...] In the graph, data for the Separate Files case is also presented
for comparison with the I/O mode data; in this case each compute node
accesses a unique file rather than opening a shared file."

We sweep request size per node for every mode and the separate-files
case, reporting the aggregate read throughput (MB/s).  Expected shape:
curves rise and saturate with request size; M_UNIX (and M_LOG, which is
nearly as serialised) sit at the bottom; M_RECORD / M_ASYNC / Separate
Files form the top cluster.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import (
    KB,
    DEFAULT_REQUEST_SIZES_KB,
    ExperimentTable,
    run_collective,
    run_separate_files,
    scaled_file_size,
)
from repro.pfs import IOMode

#: Mode order matches the figure's legend (bottom curve first).
FIGURE2_MODES = (
    IOMode.M_UNIX,
    IOMode.M_LOG,
    IOMode.M_SYNC,
    IOMode.M_RECORD,
    IOMode.M_ASYNC,
)


def run_figure2(
    request_sizes_kb: Sequence[int] = DEFAULT_REQUEST_SIZES_KB + (2048,),
    rounds: int = 16,
    n_compute: int = 8,
    n_io: int = 8,
    modes: Sequence[IOMode] = FIGURE2_MODES,
    include_separate_files: bool = True,
) -> ExperimentTable:
    """Reproduce Figure 2; one fresh machine per (mode, size) cell."""
    columns = ["request_kb"] + [mode.name for mode in modes]
    if include_separate_files:
        columns.append("SEPARATE_FILES")
    table = ExperimentTable(
        title=(
            f"Figure 2: File System Read Performance "
            f"({n_compute} Compute Nodes, {n_io} I/O Nodes) [MB/s]"
        ),
        columns=columns,
    )
    for size_kb in request_sizes_kb:
        request = size_kb * KB
        file_size = scaled_file_size(request, n_compute, rounds)
        row = [size_kb]
        for mode in modes:
            report = run_collective(
                request_size=request,
                file_size=file_size,
                iomode=mode,
                n_compute=n_compute,
                n_io=n_io,
                rounds=rounds,
                # Figure 2's workload: every node reads the shared file
                # from the beginning; M_ASYNC nodes do not seek to
                # private slices (all private pointers start at 0).
                async_partition=False,
            )
            row.append(report.collective_bandwidth_mbps)
        if include_separate_files:
            report = run_separate_files(
                request_size=request,
                file_size_per_node=request * rounds,
                n_compute=n_compute,
                n_io=n_io,
            )
            row.append(report.collective_bandwidth_mbps)
        table.add_row(*row)
    table.notes.append("64KB file-system blocks, stripe unit 64KB, stripe factor = all I/O nodes")
    return table


def check_figure2_shape(table: ExperimentTable) -> Optional[str]:
    """Validate the paper's qualitative claims; returns None if they hold.

    - M_UNIX is the slowest shared-file mode at every request size.
    - M_RECORD and M_ASYNC beat M_UNIX by a wide margin (>= 2x) at
      small request sizes.
    - Every mode's largest-request throughput exceeds its smallest.
    """
    sizes = table.column("request_kb")
    for mode in ("M_LOG", "M_SYNC", "M_RECORD", "M_ASYNC"):
        for unix_value, other, size in zip(table.column("M_UNIX"), table.column(mode), sizes):
            if other < unix_value * 0.98:
                return f"{mode} below M_UNIX at {size}KB"
    for mode in ("M_RECORD", "M_ASYNC"):
        if table.column(mode)[0] < 2.0 * table.column("M_UNIX")[0]:
            return f"{mode} not >=2x M_UNIX at the smallest request size"
    for mode in [c for c in table.columns if c != "request_kb"]:
        values = table.column(mode)
        if values[-1] <= values[0]:
            return f"{mode} does not grow with request size"
    return None


def render_figure2_chart(table: ExperimentTable) -> str:
    """ASCII line chart: throughput vs request size, one line per mode."""
    from repro.experiments.ascii_chart import plot_table

    return plot_table(table, "request_kb", x_label="request size (KB)", y_label="MB/s")


def main() -> None:  # pragma: no cover - CLI convenience
    table = run_figure2()
    print(table.render())
    print(render_figure2_chart(table))
    problem = check_figure2_shape(table)
    print(f"shape check: {'OK' if problem is None else problem}")


if __name__ == "__main__":  # pragma: no cover
    main()

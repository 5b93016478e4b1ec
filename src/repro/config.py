"""Configuration dataclasses for building simulated machines.

The defaults describe the paper's testbed: 8 compute nodes, 8 I/O nodes
(one SCSI-8 RAID-3 array each), 64KB file-system blocks, default stripe
factor 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.faults.plan import FaultPlan
from repro.hardware.params import HardwareParams

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class MachineConfig:
    """Shape and constants of one simulated Paragon."""

    #: Number of compute nodes running the application.
    n_compute: int = 8
    #: Number of I/O nodes, each with one RAID-3 array.
    n_io: int = 8
    #: PFS file-system block size ("The default block size was 64KB").
    block_size: int = 64 * KB
    #: I/O-node buffer cache capacity in blocks (used only by buffered
    #: mounts; Fast Path bypasses it).
    cache_blocks: int = 128
    #: ART pool size per compute node.
    art_threads: int = 4
    #: Coalesce contiguous file-system blocks into single disk requests
    #: on the UFS read/write paths ("contiguous file-system blocks are
    #: coalesced").  False issues one disk request per block -- the
    #: ablation observatory's handle on this mechanism.
    ufs_coalesce: bool = True
    #: LOOK elevator scheduling on the RAID-3 arrays.  False falls back
    #: to FIFO dispatch in arrival order -- the ablation observatory's
    #: handle on the disk scheduler.
    disk_elevator: bool = True
    #: Server-side readahead depth in blocks (0 = off).  Applies only to
    #: buffered mounts; the I/O-node alternative to client prefetching.
    server_readahead_blocks: int = 0
    #: Write-back caching on buffered mounts: writes return once the data
    #: is in the I/O-node cache; the disk write is deferred to the sync
    #: daemon / flush.  False = write-through (safer, slower).
    write_back: bool = False
    #: Sync-daemon flush interval (only started when write_back is on).
    sync_interval_s: float = 30.0
    #: Record request-scoped spans on ``machine.obs.tracer``.  Off by
    #: default; tracing never schedules events, so enabling it does not
    #: change simulated time (results stay bit-identical).
    trace: bool = False
    #: Client prefetch policy built by :meth:`Machine.build_prefetcher`
    #: for workload prefetchers: "one-ahead" (the paper's prototype),
    #: "none", "depth-k", or "strided".  The default keeps runs
    #: bit-identical to the seed.
    prefetch_policy: str = "one-ahead"
    #: Pipeline depth for depth-aware policies (1 = the paper's
    #: one-request-ahead).
    prefetch_depth: int = 1
    #: Attach a per-handle stride detector to the "depth-k" pipeline so
    #: lseek-strided M_ASYNC streams are predicted from the observed
    #: access history instead of the (wrong) mode arithmetic.
    prefetch_stride_detect: bool = True
    #: Tie-break order among same-timestamp events ("fifo" or "lifo").
    #: Results must be identical under either -- the tie-order race
    #: sanitizer (:func:`repro.analysis.sanitizers.check_tie_order`) runs
    #: an experiment under both and diffs the reports.
    tie_break: str = "fifo"
    #: Deterministic fault plan (:mod:`repro.faults`).  None (default)
    #: means the fault plane is entirely inert -- no extra events, no
    #: retry bookkeeping -- and results are bit-identical to a build
    #: without it (locked by the golden fingerprint regression test).
    faults: Optional[FaultPlan] = None
    #: Hardware constants.
    hardware: HardwareParams = field(default_factory=HardwareParams)

    def __post_init__(self) -> None:
        if self.n_compute <= 0:
            raise ValueError("need at least one compute node")
        if self.n_io <= 0:
            raise ValueError("need at least one I/O node")
        if self.block_size <= 0:
            raise ValueError("block size must be positive")
        from repro.core.policies import POLICY_NAMES

        if self.prefetch_policy not in POLICY_NAMES:
            raise ValueError(
                f"prefetch_policy must be one of {POLICY_NAMES}, got {self.prefetch_policy!r}"
            )
        if self.prefetch_depth < 0:
            raise ValueError("prefetch_depth must be non-negative")
        if self.tie_break not in ("fifo", "lifo"):
            raise ValueError("tie_break must be 'fifo' or 'lifo'")
        if self.faults is not None:
            self._validate_fault_targets()

    def _validate_fault_targets(self) -> None:
        """Concrete fault targets must fit this machine's shape.

        Catches raid/node indices past the configured counts at config
        time rather than as silently-never-firing specs ("*" targets and
        mesh links are exempt -- the mesh is sized from the node counts).
        Raises :class:`~repro.faults.plan.FaultError`, the same error the
        runtime raises for unknown targets it catches later.
        """
        from repro.faults.plan import (
            NODE_LIFECYCLE_KINDS,
            SCHEDULED_KINDS,
            FaultError,
        )

        for spec in self.faults.specs:
            target = spec.target
            for kinds, prefix, limit, what in (
                (SCHEDULED_KINDS, "raid", self.n_io, "I/O"),
                (NODE_LIFECYCLE_KINDS, "node", self.n_compute, "compute"),
            ):
                if spec.kind not in kinds:
                    continue
                suffix = target[len(prefix):]
                if (target.startswith(prefix) and suffix.isdigit() and int(suffix) >= limit):
                    raise FaultError(
                        f"{spec.kind} targets {target!r} but the machine has "
                        f"only {limit} {what} nodes"
                    )


@dataclass(frozen=True)
class PFSConfig:
    """Per-mount PFS configuration."""

    #: Stripe unit in bytes (default equals the FS block size).
    stripe_unit: int = 64 * KB
    #: Stripe factor; None means "all I/O nodes".
    stripe_factor: int = 0
    #: True routes transfers through the I/O-node buffer cache; False is
    #: Fast Path I/O (the configuration the paper measures).
    buffered: bool = False

    def __post_init__(self) -> None:
        if self.stripe_unit <= 0:
            raise ValueError("stripe unit must be positive")
        if self.stripe_factor < 0:
            raise ValueError("stripe factor must be non-negative (0 = all)")

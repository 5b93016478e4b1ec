"""Machine builder: wires the full simulated Paragon together.

A :class:`Machine` owns the environment, the mesh, the compute / I/O /
service nodes, the storage stack behind each I/O node (SCSI bus, RAID-3
array, UFS, buffer cache, PFS server), the coordination service, and
one PFS client per compute node.

Layout mirrors the real machine loosely: compute nodes occupy row 0 of
the mesh, I/O nodes row 1, and the service node (which hosts the
file-pointer coordination service) row 2.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.config import MachineConfig, PFSConfig
from repro.core import Prefetcher, make_policy
from repro.faults.injector import FaultInjector
from repro.hardware.mesh import Mesh
from repro.hardware.node import Node, NodeKind
from repro.hardware.raid import RAID3Array
from repro.hardware.scsi import SCSIBus
from repro.paragonos.art import AsyncRequestManager
from repro.paragonos.buffercache import BufferCache
from repro.paragonos.rpc import RPCEndpoint
from repro.paragonos.syncdaemon import SyncDaemon
from repro.pfs.client import PFSClient
from repro.pfs.coordinator import CoordinatorService
from repro.pfs.file import PFSFile
from repro.pfs.mount import PFSMount
from repro.pfs.server import PFSServer
from repro.pfs.stripe import StripeAttributes, ufs_file_size
from repro.obs import BottleneckReport, Observability
from repro.sim import Environment
from repro.ufs import UFS, BlockDevice


class Machine:
    """A fully wired simulated Paragon."""

    def __init__(self, config: Optional[MachineConfig] = None) -> None:
        self.config = config or MachineConfig()
        cfg = self.config
        self.env = Environment(tie_break=cfg.tie_break)
        #: Unified observability handle: the counter registry every
        #: component reports into, plus the request tracer.
        self.obs = Observability(self.env, trace=cfg.trace)
        #: Alias: ``machine.obs`` is itself the Monitor.
        self.monitor = self.obs

        #: Fault-injection runtime; None when the plan is absent, and the
        #: entire fault plane (retries, dedup logs, degraded checks) is
        #: then inert.
        self.faults: Optional[FaultInjector] = (
            FaultInjector(self.env, cfg.faults, monitor=self.monitor)
            if cfg.faults is not None
            else None
        )

        width = max(cfg.n_compute, cfg.n_io, 1)
        self.mesh = Mesh(
            self.env, width, 3, params=cfg.hardware.mesh, monitor=self.monitor, faults=self.faults
        )

        # -- nodes ---------------------------------------------------------
        self.compute_nodes: List[Node] = [
            Node(self.env, i, NodeKind.COMPUTE, (i, 0), params=cfg.hardware.node)
            for i in range(cfg.n_compute)
        ]
        self.io_nodes: List[Node] = [
            Node(
                self.env,
                cfg.n_compute + i,
                NodeKind.IO,
                (i, 1),
                params=cfg.hardware.node,
            )
            for i in range(cfg.n_io)
        ]
        self.service_node = Node(
            self.env,
            cfg.n_compute + cfg.n_io,
            NodeKind.SERVICE,
            (0, 2),
            params=cfg.hardware.node,
        )

        # -- storage stacks on the I/O nodes ------------------------------------
        self.buses: List[SCSIBus] = []
        self.arrays: List[RAID3Array] = []
        self.ufses: List[UFS] = []
        self.caches: List[BufferCache] = []
        self.servers: List[PFSServer] = []
        self.sync_daemons: List[SyncDaemon] = []
        self.io_endpoints: Dict[int, RPCEndpoint] = {}
        for i, node in enumerate(self.io_nodes):
            bus = SCSIBus(self.env, name=f"scsi{i}", params=cfg.hardware.scsi, monitor=self.monitor)
            array = RAID3Array(
                self.env,
                bus,
                name=f"raid{i}",
                disk_params=cfg.hardware.disk,
                raid_params=cfg.hardware.raid,
                elevator=cfg.disk_elevator,
                monitor=self.monitor,
                faults=self.faults,
            )
            ufs = UFS(
                BlockDevice(array, cfg.block_size),
                fs_id=i,
                name=f"ufs{i}",
                monitor=self.monitor,
            )
            cache = BufferCache(
                self.env,
                capacity_blocks=cfg.cache_blocks,
                block_size=cfg.block_size,
                name=f"bcache{i}",
                monitor=self.monitor,
            )
            endpoint = RPCEndpoint(
                self.env, node, self.mesh, monitor=self.monitor, faults=self.faults
            )
            server = PFSServer(
                self.env,
                node,
                endpoint,
                ufs,
                cache=cache,
                readahead_blocks=cfg.server_readahead_blocks,
                write_back=cfg.write_back,
                coalesce=cfg.ufs_coalesce,
                monitor=self.monitor,
                faults=self.faults,
            )
            if cfg.write_back:
                self.sync_daemons.append(
                    SyncDaemon(
                        self.env,
                        cache,
                        interval_s=cfg.sync_interval_s,
                        name=f"syncd{i}",
                        monitor=self.monitor,
                    )
                )
            self.buses.append(bus)
            self.arrays.append(array)
            # Rebuild byte-conservation target: the copy-back pass walks
            # the array up to the bytes the UFS has actually allocated
            # (free space holds no live data to reconstruct).
            array.live_bytes_fn = (
                lambda u=ufs: (u.device.total_blocks - u.allocator.free_blocks) * u.block_size
            )
            self.ufses.append(ufs)
            self.caches.append(cache)
            self.servers.append(server)
            self.io_endpoints[i] = endpoint

        # -- coordination service on the service node -----------------------------
        self.coordinator_endpoint = RPCEndpoint(
            self.env,
            self.service_node,
            self.mesh,
            monitor=self.monitor,
            faults=self.faults,
        )
        self.coordinator = CoordinatorService(self.env, self.coordinator_endpoint)

        # -- PFS clients on the compute nodes ------------------------------------------
        self.clients: List[PFSClient] = []
        for node in self.compute_nodes:
            endpoint = RPCEndpoint(
                self.env, node, self.mesh, monitor=self.monitor, faults=self.faults
            )
            art = AsyncRequestManager(
                self.env, node, max_threads=cfg.art_threads, monitor=self.monitor
            )
            client = PFSClient(
                self.env,
                node,
                endpoint,
                self.mesh,
                self.io_endpoints,
                self.coordinator_endpoint,
                art=art,
                monitor=self.monitor,
                faults=self.faults,
            )
            if self.faults is not None:
                windows = cfg.faults.crash_windows(f"node{node.node_id}")
                if windows:
                    client.crash_windows = windows
                    # The RPC retry loop raises NodeCrashed while the
                    # node is down instead of consuming replies.
                    endpoint.halted_fn = lambda c=client: c.crashed_at(self.env.now)
            self.clients.append(client)

        self.mounts: Dict[str, PFSMount] = {}
        # One machine-wide file-id counter shared by every mount: ids
        # key UFS inodes across mounts, and a fresh machine always
        # numbers its files 1, 2, ... (process-history independent).
        self._file_ids = itertools.count(1)

        # Time-scheduled faults (disk failure/repair) fire from a driver
        # process against the named arrays.
        if self.faults is not None:
            self.faults.start({array.name: array for array in self.arrays})
            # Every node_crash/node_restart target must name a compute
            # node this machine actually has (typos would otherwise
            # silently never fire).
            from repro.faults.plan import NODE_LIFECYCLE_KINDS, FaultError

            known = {f"node{node.node_id}" for node in self.compute_nodes}
            for spec in cfg.faults.specs:
                if spec.kind in NODE_LIFECYCLE_KINDS and spec.target not in known:
                    raise FaultError(
                        f"{spec.kind} targets unknown compute node "
                        f"{spec.target!r}; known: {sorted(known)}"
                    )

    # -- PFS administration -------------------------------------------------------

    def stripe_attributes(self, pfs: PFSConfig) -> StripeAttributes:
        """Resolve a :class:`PFSConfig` against this machine's I/O nodes."""
        factor = pfs.stripe_factor or self.config.n_io
        if factor > self.config.n_io:
            raise ValueError(f"stripe factor {factor} exceeds {self.config.n_io} I/O nodes")
        return StripeAttributes(stripe_unit=pfs.stripe_unit, stripe_group=tuple(range(factor)))

    def mount(self, name: str = "/pfs", pfs: Optional[PFSConfig] = None) -> PFSMount:
        """Create a PFS mount with the given striping/buffering defaults."""
        if name in self.mounts:
            raise ValueError(f"mount {name!r} already exists")
        pfs = pfs or PFSConfig()
        mount = PFSMount(
            name,
            self.stripe_attributes(pfs),
            buffered=pfs.buffered,
            file_ids=self._file_ids,
        )
        self.mounts[name] = mount
        return mount

    def create_file(
        self,
        mount: PFSMount,
        name: str,
        size_bytes: int,
        attrs: Optional[StripeAttributes] = None,
        rotate: bool = False,
    ) -> PFSFile:
        """Create a PFS file and its UFS stripe files (setup time, no
        simulated cost -- the paper's files pre-exist its measurements).

        With ``rotate=True`` the file's first stripe unit is placed on a
        per-file rotated group member, spreading a population of files
        (e.g. the "Separate Files" workload) across the I/O nodes.
        """
        pfs_file = mount.create_file(name, size_bytes=size_bytes, attrs=attrs)
        if rotate:
            from dataclasses import replace

            pfs_file.attrs = replace(
                pfs_file.attrs,
                rotation=pfs_file.file_id % pfs_file.attrs.stripe_factor,
            )
        for group_index, io_index in enumerate(pfs_file.attrs.stripe_group):
            stripe_bytes = ufs_file_size(pfs_file.attrs, size_bytes, group_index)
            # Always create the stripe file, even when empty, so later
            # writes can extend it.
            self.ufses[io_index].create(pfs_file.file_id, size_bytes=stripe_bytes)
        self.coordinator.register_file(pfs_file)
        return pfs_file

    def remove_file(self, mount: PFSMount, name: str) -> None:
        pfs_file = mount.remove(name)
        for io_index in pfs_file.attrs.stripe_group:
            if self.ufses[io_index].exists(pfs_file.file_id):
                self.ufses[io_index].unlink(pfs_file.file_id)
        self.coordinator.unregister_file(pfs_file)

    def build_prefetcher(self, rank: int = 0) -> Prefetcher:
        """A prefetcher configured from this machine's policy knobs.

        Builds the policy named by ``config.prefetch_policy`` (with
        ``prefetch_depth`` / ``prefetch_stride_detect``).  The default
        config yields exactly the paper's prototype
        (``Prefetcher(DepthKAhead(1))``), so factory call sites that
        route through here stay bit-identical to the seed.  The
        signature is a drop-in
        :data:`~repro.workloads.synthetic.PrefetcherFactory`.
        """
        cfg = self.config
        return Prefetcher(
            make_policy(
                cfg.prefetch_policy,
                depth=cfg.prefetch_depth,
                stride_detect=cfg.prefetch_stride_detect,
            ),
            monitor=self.monitor,
        )

    # -- invariants --------------------------------------------------------------------

    def verify(self, strict: bool = False) -> List[str]:
        """Check machine-wide invariants; returns violation descriptions.

        Cheap enough to run after every test workload.  With
        ``strict=True`` raises AssertionError on the first violation.
        """
        problems: List[str] = []

        # 1. Block conservation on every UFS.
        for ufs in self.ufses:
            allocated = sum(  # sim-ok: R003v2 -- post-quiescence integer sum, order-free
                inode.nblocks for inode in ufs._inodes.values()
            )
            total = ufs.allocator.free_blocks + allocated
            if total != ufs.device.total_blocks:
                problems.append(
                    f"{ufs.name}: {ufs.allocator.free_blocks} free + "
                    f"{allocated} allocated != {ufs.device.total_blocks} total"
                )

        # 2. Caches within capacity (dirty pressure may overflow
        #    transiently; clean blocks never may).
        for cache in self.caches:
            if len(cache) - cache.dirty_count > cache.capacity_blocks:
                problems.append(
                    f"{cache.name}: {len(cache)} blocks ({cache.dirty_count} "
                    f"dirty) exceeds capacity {cache.capacity_blocks}"
                )

        # 3. Every mounted file is registered with the coordinator and its
        #    stripe files never exceed the logical size.
        for mount_point in sorted(self.mounts):
            mount = self.mounts[mount_point]
            for fname in sorted(mount.files):
                pfs_file = mount.files[fname]
                if pfs_file.file_id not in self.coordinator._files:
                    problems.append(f"{pfs_file.name!r} not registered with the coordinator")
                stripe_total = 0
                for io_index in pfs_file.attrs.stripe_group:
                    if self.ufses[io_index].exists(pfs_file.file_id):
                        stripe_total += self.ufses[io_index].inode(pfs_file.file_id).size_bytes
                if stripe_total > pfs_file.size_bytes:
                    problems.append(
                        f"{pfs_file.name!r}: stripe files hold {stripe_total} "
                        f"bytes > logical size {pfs_file.size_bytes}"
                    )

        # 4. Node memory accounting is non-negative and within capacity.
        for node in self.compute_nodes + self.io_nodes:
            if node.memory.used_bytes < 0:
                problems.append(f"node {node.node_id}: negative memory usage")
            if node.memory.used_bytes > node.memory.capacity_bytes:
                problems.append(f"node {node.node_id}: memory over capacity")

        # 5. Servers never delivered fewer bytes than clients demanded.
        client_bytes = self.monitor.counter_value("pfs_client.demand_bytes")
        server_bytes = sum(
            self.monitor.counter_value(f"pfs_server.{n.node_id}.bytes_reads") for n in self.io_nodes
        )
        if server_bytes < client_bytes:
            problems.append(
                f"servers read {server_bytes} bytes but clients received "
                f"{client_bytes} demand bytes"
            )

        # 6. No leaked resource holds once the event queue has drained
        #    (a held CPU / mesh link / RAID arm with no event left to
        #    release it can never be released).
        from repro.analysis.sanitizers import leaked_resources

        for leak in leaked_resources(self.env):
            problems.append(str(leak))

        # 7. Under fault injection, every byte range delivered along an
        #    audited path -- demand reads handed to the application,
        #    prefetched data landed in client buffers, readahead blocks
        #    pulled into server caches -- is byte-identical to the
        #    fault-free content (recovered reads -- retries, degraded-mode
        #    reconstruction, copy-back rebuild -- must be transparent).
        #    Each path logs the delivered ``Data``; we rebuild ground
        #    truth lazily from the stripe files and compare by ``Data``
        #    equality, which reads bytes only when the runs differ.
        #    Demand/prefetch offsets are PFS-file-space; readahead offsets
        #    are UFS-stripe-space on stripe ``io_node``.
        if self.faults is not None:
            from repro.pfs.stripe import decluster
            from repro.ufs.data import concat_data

            attrs_by_id = {}
            for mount_point in sorted(self.mounts):
                for fname in sorted(self.mounts[mount_point].files):
                    pfs_file = self.mounts[mount_point].files[fname]
                    attrs_by_id[pfs_file.file_id] = pfs_file.attrs
            for (
                file_id, offset, nbytes, delivered, kind, io_node,
            ) in self.faults.deliveries:
                attrs = attrs_by_id.get(file_id)
                if attrs is None:
                    problems.append(f"delivery audit: unknown file_id {file_id}")
                    continue
                if kind == "readahead":
                    truth = self.ufses[io_node].content(file_id, offset, nbytes)
                else:
                    pieces = sorted(
                        decluster(attrs, offset, nbytes),
                        key=lambda p: p.pfs_offset,
                    )
                    truth = concat_data(
                        [
                            self.ufses[p.io_node].content(file_id, p.ufs_offset, p.length)
                            for p in pieces
                        ]
                    )
                if delivered != truth:
                    problems.append(
                        f"delivery audit: file {file_id} {kind} "
                        f"[{offset}, {offset + nbytes}) delivered bytes "
                        f"differ from fault-free content"
                    )

        if strict and problems:
            raise AssertionError("; ".join(problems))
        return problems

    def describe(self) -> str:
        """Human-readable inventory of the machine (config + hardware)."""
        cfg = self.config
        hw = cfg.hardware
        lines = [
            f"Simulated Paragon: {cfg.n_compute} compute + {cfg.n_io} I/O "
            f"nodes + 1 service node on a "
            f"{self.mesh.width}x{self.mesh.height} mesh",
            f"  file-system block: {cfg.block_size // 1024}KB; "
            f"buffer cache: {cfg.cache_blocks} blocks/I/O node; "
            f"ARTs: {cfg.art_threads}/compute node",
            f"  storage per I/O node: RAID-3 {hw.raid.data_disks}+1 "
            f"({hw.disk.media_rate_bps / 2**20:.1f} MB/s media each) behind "
            f"SCSI at {hw.scsi.bandwidth_bps / 2**20:.1f} MB/s",
            f"  node: {hw.node.cpu_count} CPU(s), "
            f"{hw.node.memory_bytes // 2**20}MB memory, receive path "
            f"{hw.node.receive_bps / 2**20:.1f} MB/s",
            f"  mesh links: {hw.mesh.link_bandwidth_bps / 2**20:.0f} MB/s",
            f"  write policy: "
            f"{'write-back (sync every ' + str(cfg.sync_interval_s) + 's)' if cfg.write_back else 'write-through'}"
            f"; server readahead: {cfg.server_readahead_blocks} blocks",
        ]
        if self.mounts:
            lines.append("  mounts:")
            for mount in self.mounts.values():
                lines.append(f"    {mount!r}")
        return "\n".join(lines)

    def bottleneck_report(self) -> Optional[BottleneckReport]:
        """Which resource saturated the run so far (None before time passes).

        Reads the components' busy-seconds fields directly -- disk
        arrays, SCSI buses, mesh links, and every node's CPUs
        (normalised by CPU count) and message processor -- so it
        leaves every fast path engaged.
        """
        nodes = self.compute_nodes + self.io_nodes + [self.service_node]
        busy = {
            "disk": {array.name: array.busy_s for array in self.arrays},
            "scsi bus": {bus.name: bus.busy_s for bus in self.buses},
            "mesh link": self.mesh.link_busy_s(),
            "cpu": {str(n.node_id): n.cpu_busy_s / n.params.cpu_count for n in nodes},
            "msgproc": {str(n.node_id): n.msgproc_busy_s for n in nodes},
        }
        return BottleneckReport.from_busy_seconds(busy, self.env.now)

    # -- running -------------------------------------------------------------------------

    def run(self, until=None):
        """Run the simulation (delegates to the environment)."""
        return self.env.run(until=until)

    def spawn(self, generator, name: Optional[str] = None):
        """Start a process on the machine."""
        return self.env.process(generator, name=name)

    def io_node_positions(self) -> List[Tuple[int, int]]:
        return [node.position for node in self.io_nodes]

    def __repr__(self) -> str:
        return (
            f"<Machine {self.config.n_compute}C/{self.config.n_io}IO "
            f"block={self.config.block_size}>"
        )

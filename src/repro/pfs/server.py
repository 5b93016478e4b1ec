"""The PFS server running on each I/O node.

Serves read/write requests against the node's UFS, through one of two
paths:

- **Fast Path** (mount buffering disabled, the PFS default for large
  transfers): data moves directly between the disks and the reply
  message -- no buffer-cache copy.  Contiguous file-system blocks are
  coalesced into single disk requests.  A Fast Path read or write is a
  callback chain (:class:`_FastPathServe`), traced or not, under any
  fault plan, which opens its own ``server_io`` span.
- **Buffered**: blocks go through the I/O-node buffer cache; hits skip
  the disk entirely, but every byte pays a cache-to-message memcpy on
  the I/O node CPU.  A buffered request runs in a serve process of the
  node's RPC endpoint, which waits on the UFS callback forms (a cache
  fill, readahead, write-through or writeback) by yielding the
  :class:`~repro.sim.events.Completion` it passes as their ``then``.

Requests that are not aligned to file-system block boundaries move the
covering whole blocks from disk and pay a partial-block copy ("there is
a higher overhead involved in creating temporary buffers for the size
of the partial blocks and copying only the necessary data").
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.hardware.node import Node

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
from repro.paragonos.buffercache import BufferCache
from repro.paragonos.messages import (
    ControlReply,
    ControlRequest,
    ReadReply,
    ReadRequest,
    WriteReply,
    WriteRequest,
)
from repro.obs.trace import NOOP_SPAN, get_tracer
from repro.paragonos.rpc import RPCEndpoint
from repro.sim import Environment
from repro.sim.events import Completion, Timeout
from repro.obs.monitor import NULL_MONITOR, CounterStat, Monitor
from repro.ufs import UFS, concat_data


class PFSServer:
    """PFS request handlers bound to one I/O node."""

    def __init__(
        self,
        env: Environment,
        node: Node,
        endpoint: RPCEndpoint,
        ufs: UFS,
        cache: Optional[BufferCache] = None,
        readahead_blocks: int = 0,
        write_back: bool = False,
        coalesce: bool = True,
        monitor: Optional[Monitor] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        """*readahead_blocks* > 0 enables server-side readahead: after a
        buffered read, the server asynchronously pulls the next blocks of
        the stripe file into its cache (classic UFS readahead -- the
        I/O-node-side alternative to the paper's client-side prefetching;
        compared in the ablation benches).  Requires a cache.

        *write_back* switches buffered writes from write-through to
        write-back: the write returns once the data is in the cache; the
        disk write happens at flush time (sync daemon, explicit flush, or
        clean-block eviction pressure)."""
        if readahead_blocks < 0:
            raise ValueError("readahead_blocks must be non-negative")
        if write_back and cache is None:
            raise ValueError("write-back caching requires a cache")
        self.env = env
        self.node = node
        self.endpoint = endpoint
        self.ufs = ufs
        self.cache = cache
        self.readahead_blocks = readahead_blocks
        self.write_back = write_back
        #: Coalesce contiguous blocks into single disk requests on the
        #: Fast Path (off = one request per block; ablation handle).
        self.coalesce = coalesce
        self.monitor = monitor or NULL_MONITOR
        self.faults = faults
        if faults is not None:
            #: This node's name as ``server_stall`` specs target it.
            self._stall_target = f"node{node.node_id}"
        self.tracer = get_tracer(monitor)
        #: Counter objects by ``(kind, cause)`` / extra name, resolved on
        #: first use (so a counter appears in the snapshot when it would
        #: have been named).
        self._counters: Dict[Tuple[str, str], Tuple[CounterStat, ...]] = {}
        self._extra_counters: Dict[str, CounterStat] = {}
        if cache is not None:
            cache.writeback = self._writeback
        endpoint.register(ReadRequest, self._handle_read)
        endpoint.register(WriteRequest, self._handle_write)
        endpoint.register(ControlRequest, self._handle_control)
        # Fast Path reads and writes are served without a process (see
        # _FastPathServe).
        endpoint.register_callback(ReadRequest, partial(_FastPathRead, self), self._fastpath_ready)
        endpoint.register_callback(
            WriteRequest, partial(_FastPathWrite, self), self._fastpath_ready
        )

    def _fastpath_ready(self, request) -> bool:
        """Whether a read or write is served as a callback chain: it
        takes the Fast Path."""
        return request.fastpath or self.cache is None

    def _writeback(self, key, data):
        """Generator: persist one dirty cached block to the UFS."""
        file_id, block = key
        env = self.env
        done = Completion(env)
        self.ufs.write_block_then(file_id, block, data, env.active_process.order_key, done)
        yield done
        self._count_extra("writebacks")

    def _read_block(self, file_id: int, block: int, ctx=None):
        """Generator: read one block for the cache (fill or readahead)."""
        env = self.env
        done = Completion(env)
        self.ufs.read_block_then(file_id, block, env.active_process.order_key, done, ctx)
        return (yield done)

    def _block_content(self, file_id: int, offset: int, nbytes: int):
        """Assemble content preferring cached (possibly dirty) blocks."""
        if self.cache is None:
            return self.ufs.content(file_id, offset, nbytes)
        bs = self.ufs.block_size
        pieces = []
        pos = offset
        end = offset + nbytes
        while pos < end:
            block = pos // bs
            in_block = pos - block * bs
            take = min(bs - in_block, end - pos)
            cached = self.cache.peek((file_id, block))
            # A cached block ends where the file ended when it was cached;
            # bytes the file has grown into since then come from the UFS.
            if cached is not None and in_block < len(cached):
                take = min(take, len(cached) - in_block)
                pieces.append(cached.slice(in_block, take))
            else:
                pieces.append(self.ufs.content(file_id, pos, take))
            pos += take
        return concat_data(pieces)

    # -- read -------------------------------------------------------------

    def _handle_read(self, request: ReadRequest):
        """A buffered read (a Fast Path read is a :class:`_FastPathRead`)."""
        span = self._open_span(request, "read", request.nbytes, cause=request.cause)
        try:
            yield from self.node.busy(self.node.params.server_request_overhead_s)
            if self.faults is not None:
                stall_s = self._stall_s()
                if stall_s is not None:
                    yield self.env.timeout(stall_s)
            data, cache_hit = yield from self._read_buffered(request)
        except Exception as exc:
            if self.tracer.enabled:
                self.tracer.end(span, error=str(exc))
            raise
        if self.tracer.enabled:
            self.tracer.end(span, cache_hit=cache_hit)
        self._count("reads", request.nbytes, request.cause)
        return ReadReply(
            file_id=request.file_id,
            ufs_offset=request.ufs_offset,
            data=data,
            cache_hit=cache_hit,
        )

    def _stall_s(self) -> Optional[float]:
        """Seconds a read waits after its request overhead, if a
        ``server_stall`` spec of the fault plan fires for this node: the
        server thread wedges (page fault storm, driver hiccup) before
        touching storage, and the client's RPC timeout covers it."""
        stall = self.faults.decide("server_stall", self._stall_target)
        if stall is None:
            return None
        self._count_extra("stalls")
        return stall.duration_s

    def _read_buffered(self, request: ReadRequest):
        """Per-block reads through the buffer cache."""
        assert self.cache is not None
        bs = self.ufs.block_size
        file_id = request.file_id
        first = request.ufs_offset // bs
        last = (request.ufs_offset + max(request.nbytes, 1) - 1) // bs
        all_hits = True
        for block in range(first, last + 1):
            key = (file_id, block)
            if key not in self.cache:
                all_hits = False
            fetch = partial(self._read_block, file_id, block, request.ctx)
            yield from self.cache.read_block(key, fetch)
        if self.readahead_blocks > 0:
            self._start_readahead(file_id, last + 1)
        # Cache -> reply buffer copy for every byte delivered.
        yield from self.node.memcpy(request.nbytes)
        data = self._block_content(file_id, request.ufs_offset, request.nbytes)
        return data, all_hits

    def _start_readahead(self, file_id: int, first_block: int) -> None:
        """Asynchronously pull the next blocks of the file into the cache."""
        assert self.cache is not None
        inode = self.ufs.inode(file_id)
        blocks = []
        for block in range(first_block, first_block + self.readahead_blocks):
            if block >= inode.nblocks:
                break
            if (file_id, block) in self.cache:
                continue
            blocks.append(block)
        if not blocks:
            return

        def readahead():
            for block in blocks:
                fetch = partial(self._read_block, file_id, block)
                yield from self.cache.read_block((file_id, block), fetch)
                self._count_extra("readahead_blocks")
                if self.faults is not None:
                    # Audit the block as it lands in the cache; offsets
                    # are UFS-stripe-space and ``io_node`` is this stripe's
                    # index (invariant 7 checks them against its UFS).
                    start = block * self.ufs.block_size
                    inode = self.ufs.inode(file_id)
                    length = min(self.ufs.block_size, inode.size_bytes - start)
                    self.faults.record_delivery(
                        file_id,
                        start,
                        length,
                        self._block_content(file_id, start, length),
                        kind="readahead",
                        io_node=self.ufs.fs_id,
                    )

        self.env.process(readahead(), name=f"readahead-{self.node.node_id}-{file_id}")

    # -- write ------------------------------------------------------------------

    def _handle_write(self, request: WriteRequest):
        """A buffered write (a Fast Path write is a :class:`_FastPathWrite`)."""
        nbytes = len(request.data)
        span = self._open_span(request, "write", nbytes)
        try:
            yield from self.node.busy(self.node.params.server_request_overhead_s)
            if self.write_back:
                yield from self._write_back_cached(request, nbytes)
            else:
                yield from self._write_through(request, nbytes)
        except Exception as exc:
            if self.tracer.enabled:
                self.tracer.end(span, error=str(exc))
            raise
        self.tracer.end(span)
        self._count("writes", nbytes, "demand")
        return WriteReply(file_id=request.file_id, ufs_offset=request.ufs_offset, nbytes=nbytes)

    def _write_through(self, request: WriteRequest, nbytes: int):
        """Write-through: install in cache and persist to the UFS."""
        assert self.cache is not None
        yield from self.node.memcpy(nbytes)
        env = self.env
        done = Completion(env)
        order_key = env.active_process.order_key
        self.ufs.write_then(
            request.file_id, request.ufs_offset, request.data, True, order_key, done, request.ctx
        )
        yield done
        bs = self.ufs.block_size
        first = request.ufs_offset // bs
        last = (request.ufs_offset + max(nbytes, 1) - 1) // bs
        for block in range(first, last + 1):
            key = (request.file_id, block)
            if key in self.cache:
                start = block * bs
                inode = self.ufs.inode(request.file_id)
                length = min(bs, inode.size_bytes - start)
                self.cache.write_block(key, self.ufs.content(request.file_id, start, length))
                # Content now persisted; the cached copy is clean.
                self.cache._blocks[key].dirty = False

    def _write_back_cached(self, request: WriteRequest, nbytes: int):
        """Write-back: land the data in the cache only; no disk time.

        The write call pays the copy into the cache; partially covered
        blocks are merged against the freshest content (cache first).
        The dirty blocks reach the disk via flush, the sync daemon, or
        eviction pressure.
        """
        assert self.cache is not None
        yield from self.node.memcpy(nbytes)
        # Grow the stripe file's metadata now (block allocation is
        # bookkeeping); the data itself stays dirty in the cache.
        end = request.ufs_offset + nbytes
        inode = self.ufs.inode(request.file_id)
        if end > inode.size_bytes:
            self.ufs.extend(request.file_id, end)
            inode = self.ufs.inode(request.file_id)
        bs = self.ufs.block_size
        pos = request.ufs_offset
        while pos < end:
            block = pos // bs
            in_block = pos - block * bs
            take = min(bs - in_block, end - pos)
            block_start = block * bs
            block_len = min(bs, inode.size_bytes - block_start)
            old = self._block_content(request.file_id, block_start, block_len)
            chunk = request.data.slice(pos - request.ufs_offset, take)
            merged = concat_data(
                [
                    old.slice(0, in_block),
                    chunk,
                    old.slice(
                        in_block + take, block_len - in_block - take
                    ),
                ]
            )
            self.cache.write_block((request.file_id, block), merged)
            pos += take
        self._count_extra("write_back_writes")
        return None

    # -- control -------------------------------------------------------------------

    def _handle_control(self, request: ControlRequest):
        yield from self.node.busy(self.node.params.server_request_overhead_s)
        op = request.op
        try:
            if op == "create":
                size = int(request.arg or 0)
                self.ufs.create(request.file_id, size_bytes=size)
                result = size
            elif op == "extend":
                inode = self.ufs.extend(request.file_id, int(request.arg))
                result = inode.size_bytes
            elif op == "truncate":
                if self.cache is not None:
                    # Drop cached blocks past the new end.
                    bs = self.ufs.block_size
                    keep = -(-int(request.arg) // bs)
                    for key in [
                        k
                        for k in list(self.cache._blocks)
                        if k[0] == request.file_id and k[1] >= keep
                    ]:
                        self.cache.invalidate(key)
                inode = self.ufs.truncate(request.file_id, int(request.arg))
                result = inode.size_bytes
            elif op == "stat":
                result = self.ufs.inode(request.file_id).size_bytes
            elif op == "unlink":
                if self.cache is not None:
                    self.cache.invalidate_file(request.file_id)
                self.ufs.unlink(request.file_id)
                result = None
            elif op == "flush":
                if self.cache is not None:
                    yield from self.cache.flush()
                result = None
            else:
                return ControlReply(op=op, file_id=request.file_id, error=f"unknown op {op!r}")
        except Exception as exc:
            return ControlReply(op=op, file_id=request.file_id, error=str(exc))
        return ControlReply(op=op, file_id=request.file_id, result=result)

    # -- helpers ---------------------------------------------------------------------

    def _open_span(self, request, op: str, nbytes: int, **attrs):
        """Open a read or write's ``server_io`` span and thread its
        context into *request*, so its disk work parents under it;
        untraced, ``NOOP_SPAN``."""
        if not self.tracer.enabled:
            return NOOP_SPAN
        span = self.tracer.begin(
            "server_io", ctx=request.ctx, node_id=self.node.node_id, op=op, bytes=nbytes, **attrs
        )
        request.ctx = span.ctx
        return span

    def _unaligned(self, offset: int, nbytes: int) -> bool:
        bs = self.ufs.block_size
        return offset % bs != 0 or nbytes % bs != 0

    def _count(self, kind: str, nbytes: int, cause: str) -> None:
        counters = self._counters.get((kind, cause))
        if counters is None:
            name = f"pfs_server.{self.node.node_id}"
            counter = self.monitor.counter
            counters = self._counters[(kind, cause)] = (
                counter(f"{name}.{kind}"),
                counter(f"{name}.bytes_{kind}"),
                counter(f"{name}.{kind}.{cause}"),
            )
        requests, nbytes_counter, by_cause = counters
        requests.add(1)
        nbytes_counter.add(nbytes)
        by_cause.add(1)

    def _count_extra(self, what: str) -> None:
        counter = self._extra_counters.get(what)
        if counter is None:
            name = f"pfs_server.{self.node.node_id}.{what}"
            counter = self._extra_counters[what] = self.monitor.counter(name)
        counter.add(1)

    def __repr__(self) -> str:
        return f"<PFSServer node={self.node.node_id} cache={'on' if self.cache else 'off'}>"


class _FastPathServe:
    """One Fast Path read or write, served as a callback chain: its only
    form, traced or not, under any fault plan.

    Built by the RPC endpoint on the serve's start (see
    :meth:`~repro.paragonos.rpc.RPCEndpoint.register_callback`), it runs
    under the serve's order key *key*.  Traced, it opens the request's
    ``server_io`` span and threads the span's context into the request.
    It then takes the request overhead on the CPU, a read's
    ``server_stall`` under a fault plan, the UFS transfer straight
    between the disks and the reply, and the partial-block copy when the
    range is unaligned.  Last it ends the span, counts and calls
    ``then(reply, None)``; a handler error ends the span with ``error``
    and calls ``then(None, error)``.
    """

    __slots__ = ("server", "request", "key", "then", "data", "span")

    #: The ``pfs_server.<node>.*`` counter of an unaligned request.
    partial_counter = ""
    #: Whether a fault plan's ``server_stall`` applies (reads only, as
    #: in :meth:`PFSServer._handle_read`).
    stalls = False

    def __init__(self, server: PFSServer, request, key: Any, then: Callable) -> None:
        self.server = server
        self.request = request
        self.key = key
        self.then = then
        self.data = None
        self.span = self._open_span() if server.tracer.enabled else NOOP_SPAN
        node = server.node
        node.busy_then(node.params.server_request_overhead_s, key, self._transfer)

    def _transfer(self, stalled: Optional[Timeout] = None) -> None:
        """Run after the request overhead (with *stalled*, after the
        ``server_stall`` that followed it): start the UFS transfer."""
        server = self.server
        if stalled is None and self.stalls and server.faults is not None:
            stall_s = server._stall_s()
            if stall_s is not None:
                Timeout(server.env, stall_s).callbacks.append(self._transfer)
                return
        try:
            self._start_transfer()
        except Exception as exc:
            self._fail(exc)

    def _transferred(self, result: Any, error: Optional[BaseException]) -> None:
        if error is not None:
            self._fail(error)
            return
        self.data = result
        server = self.server
        nbytes = self._nbytes()
        if server._unaligned(self.request.ufs_offset, nbytes):
            # Whole blocks moved on the disk; copy just the range.
            server.node.memcpy_then(nbytes, self.key, self._copied)
        else:
            self._reply()

    def _copied(self) -> None:
        self.server._count_extra(self.partial_counter)
        self._reply()

    def _reply(self) -> None:
        self.then(self._finish(), None)

    def _fail(self, error: BaseException) -> None:
        tracer = self.server.tracer
        if tracer.enabled:
            tracer.end(self.span, error=str(error))
        self.then(None, error)

    def _open_span(self):
        raise NotImplementedError

    def _nbytes(self) -> int:
        raise NotImplementedError

    def _start_transfer(self) -> None:
        raise NotImplementedError

    def _finish(self) -> Any:
        raise NotImplementedError


class _FastPathRead(_FastPathServe):
    __slots__ = ()
    partial_counter = "partial_block_reads"
    stalls = True

    def _open_span(self):
        request = self.request
        return self.server._open_span(request, "read", request.nbytes, cause=request.cause)

    def _nbytes(self) -> int:
        return self.request.nbytes

    def _start_transfer(self) -> None:
        server = self.server
        request = self.request
        server.ufs.read_then(
            request.file_id,
            request.ufs_offset,
            request.nbytes,
            server.coalesce,
            self.key,
            self._transferred,
            request.ctx,
        )

    def _finish(self) -> ReadReply:
        request = self.request
        server = self.server
        if server.tracer.enabled:
            server.tracer.end(self.span, cache_hit=False)
        server._count("reads", request.nbytes, request.cause)
        return ReadReply(
            file_id=request.file_id,
            ufs_offset=request.ufs_offset,
            data=self.data,
            cache_hit=False,
        )


class _FastPathWrite(_FastPathServe):
    __slots__ = ()
    partial_counter = "partial_block_writes"

    def _open_span(self):
        return self.server._open_span(self.request, "write", len(self.request.data))

    def _nbytes(self) -> int:
        return len(self.request.data)

    def _start_transfer(self) -> None:
        server = self.server
        request = self.request
        server.ufs.write_then(
            request.file_id,
            request.ufs_offset,
            request.data,
            server.coalesce,
            self.key,
            self._transferred,
            request.ctx,
        )

    def _finish(self) -> WriteReply:
        request = self.request
        nbytes = len(request.data)
        server = self.server
        server.tracer.end(self.span)
        server._count("writes", nbytes, "demand")
        return WriteReply(file_id=request.file_id, ufs_offset=request.ufs_offset, nbytes=nbytes)


# Re-export for client convenience.
__all__ = ["PFSServer", "concat_data"]

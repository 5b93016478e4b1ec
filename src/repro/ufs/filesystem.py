"""The UFS: files, block allocation, reads/writes with coalescing.

One UFS instance runs per I/O node.  Reads and writes spend simulated
time on the node's block device, each as a callback chain: a byte
range's read or write (:meth:`UFS.read_then`, :meth:`UFS.write_then`)
for Fast Path serves and write-through, and one block's read or write
(:meth:`UFS.read_block_then`, :meth:`UFS.write_block_then`) for the
buffer cache's fills and writebacks.  A process waits on one by passing
a :class:`~repro.sim.events.Completion` as its ``then``.  The
*content* returned is assembled from written blocks (each stored as the
lazy :class:`~repro.ufs.data.Data` the write described) and runs of
unwritten blocks (synthetic deterministic bytes), so round-trips are
exact and neither path materialises bytes.

Fast Path coalescing: a multi-block read/write issues one disk request
per *physically contiguous run* of blocks rather than one per block.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.trace import TraceContext
from repro.obs.monitor import NULL_MONITOR, Monitor
from repro.ufs.allocator import ExtentAllocator
from repro.ufs.blockdev import BlockDevice
from repro.ufs.data import Data, LiteralData, SyntheticData, concat_data, zeros
from repro.ufs.inode import Inode


class UFSError(Exception):
    """File-system level errors (missing file, bad range, ...)."""


class UFS:
    """A Unix File System on one block device."""

    def __init__(
        self,
        device: BlockDevice,
        fs_id: int = 0,
        name: str = "ufs",
        monitor: Optional[Monitor] = None,
    ) -> None:
        self.device = device
        self.fs_id = fs_id
        self.name = name
        self.monitor = monitor = monitor or NULL_MONITOR
        self._c_reads = monitor.counter(f"{name}.reads")
        self._c_bytes_read = monitor.counter(f"{name}.bytes_read")
        self._c_writes = monitor.counter(f"{name}.writes")
        self._c_bytes_written = monitor.counter(f"{name}.bytes_written")
        self.block_size = device.block_size
        self.allocator = ExtentAllocator(device.total_blocks)
        self._inodes: Dict[int, Inode] = {}
        #: Written content: file_id -> {logical block -> its content}.  A
        #: stored block is as long as the file's bytes in that block.
        self._written: Dict[int, Dict[int, Data]] = {}

    # -- namespace ---------------------------------------------------------

    def exists(self, file_id: int) -> bool:
        return file_id in self._inodes

    def inode(self, file_id: int) -> Inode:
        try:
            return self._inodes[file_id]
        except KeyError:
            raise UFSError(f"no such file {file_id} on {self.name}") from None

    def create(self, file_id: int, size_bytes: int = 0) -> Inode:
        """Create a file, allocating blocks to cover *size_bytes*."""
        if file_id in self._inodes:
            raise UFSError(f"file {file_id} already exists on {self.name}")
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        inode = Inode(file_id=file_id)
        self._inodes[file_id] = inode
        if size_bytes > 0:
            self._grow(inode, size_bytes)
        return inode

    def extend(self, file_id: int, new_size: int) -> Inode:
        """Grow a file to at least *new_size* bytes."""
        inode = self.inode(file_id)
        if new_size > inode.size_bytes:
            self._grow(inode, new_size)
        return inode

    def truncate(self, file_id: int, new_size: int) -> Inode:
        """Shrink (or grow) a file to exactly *new_size* bytes.

        Shrinking frees whole blocks past the new end and discards their
        written content, and clips a kept partial block's, so a regrow
        reads zeros there; growing allocates like :meth:`extend`.
        """
        if new_size < 0:
            raise ValueError("size must be non-negative")
        inode = self.inode(file_id)
        if new_size >= inode.size_bytes:
            return self.extend(file_id, new_size)
        keep_blocks = -(-new_size // self.block_size) if new_size else 0
        if keep_blocks < inode.nblocks:
            # Free the physical extents of the dropped tail.
            dropped = inode.physical_runs(keep_blocks, inode.nblocks - keep_blocks)
            from repro.ufs.allocator import Extent

            self.allocator.free([Extent(phys, length) for _log, phys, length in dropped])
            del inode.block_map[keep_blocks:]
        written = self._written.get(file_id)
        if written:
            for block in [b for b in written if b >= keep_blocks]:
                del written[block]
            last = keep_blocks - 1
            kept = new_size - last * self.block_size
            stored = written.get(last)
            if stored is not None and len(stored) > kept:
                written[last] = stored.slice(0, kept)
        inode.size_bytes = new_size
        return inode

    def unlink(self, file_id: int) -> None:
        inode = self.inode(file_id)
        self.allocator.free(inode.extents())
        del self._inodes[file_id]
        self._written.pop(file_id, None)

    def _grow(self, inode: Inode, new_size: int) -> None:
        bs = self.block_size
        written = self._written.get(inode.file_id)
        last = inode.size_bytes // bs
        if written and last in written:
            # The grown tail of a written block reads as zeros.
            stored = written[last]
            grown = min(bs, new_size - last * bs) - len(stored)
            written[last] = concat_data([stored, zeros(grown)])
        needed_blocks = -(-new_size // bs)  # ceil div
        extra = needed_blocks - inode.nblocks
        if extra > 0:
            inode.append_extents(self.allocator.allocate(extra))
        inode.size_bytes = max(inode.size_bytes, new_size)

    # -- content assembly (no simulated time) -------------------------------

    def _synthetic_key(self, file_id: int) -> int:
        return self.fs_id * 1_000_003 + file_id

    def content(self, file_id: int, offset: int, nbytes: int) -> Data:
        """Assemble the content of a byte range (no disk time)."""
        inode = self.inode(file_id)
        if offset < 0 or nbytes < 0 or offset + nbytes > inode.size_bytes:
            raise UFSError(
                f"range [{offset}, {offset + nbytes}) outside file {file_id} "
                f"of {inode.size_bytes} bytes"
            )
        if nbytes == 0:
            return LiteralData(b"")
        key = self._synthetic_key(file_id)
        written = self._written.get(file_id)
        if not written:
            return SyntheticData(key, offset, nbytes)
        bs = self.block_size
        pieces: List[Data] = []
        pos = offset
        end = offset + nbytes
        while pos < end:
            block = pos // bs
            stored = written.get(block)
            if stored is None:
                # One synthetic piece for the whole run of unwritten blocks.
                block += 1
                while block * bs < end and block not in written:
                    block += 1
                take = min(block * bs, end) - pos
                pieces.append(SyntheticData(key, pos, take))
            else:
                in_block = pos - block * bs
                take = min(bs - in_block, end - pos)
                pieces.append(stored.slice(in_block, take))
            pos += take
        return concat_data(pieces)

    # -- timed operations ------------------------------------------------------

    def read_then(
        self,
        file_id: int,
        offset: int,
        nbytes: int,
        coalesce: bool,
        key: Any,
        then: Callable[[Any, Any], None],
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """Read a byte range, spending disk time, for a caller that is
        not a process: the disk runs queue under *key* one after another
        (each a ``disk_service`` span under *ctx* when traced), and
        ``then(data, None)`` runs when the last completes (at once for an
        empty range), or ``then(None, error)`` on an error raised after
        this call returns.  Validation errors raise here.

        Whole file-system blocks covering the range are transferred from
        disk (partial-block requests still move full blocks -- the source
        of the paper's partial-block overhead); content for exactly the
        requested range is returned.
        """
        _CallbackRead(self, file_id, offset, nbytes, coalesce, key, then, ctx).step()

    def write_then(
        self,
        file_id: int,
        offset: int,
        data: Data,
        coalesce: bool,
        key: Any,
        then: Callable[[Any, Any], None],
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """Write *data* at *offset*, growing the file as needed, for a
        caller that is not a process (see :meth:`read_then`).  Partially
        covered edge blocks require a read-modify-write: they are read
        from disk first, then the content is merged and the runs
        written; ``then(nbytes, None)`` at the end."""
        nbytes = len(data)
        if offset < 0:
            raise UFSError("negative offset")
        inode = self.inode(file_id)
        if nbytes == 0:
            then(0, None)
            return
        if offset + nbytes > inode.size_bytes:
            self._grow(inode, offset + nbytes)
        bs = self.block_size
        rmw_blocks = []
        if offset % bs != 0:
            rmw_blocks.append(offset // bs)
        if (offset + nbytes) % bs != 0:
            rmw_blocks.append((offset + nbytes - 1) // bs)
        rmw_runs = [(b, inode.physical_block(b), 1) for b in dict.fromkeys(rmw_blocks)]
        _CallbackWrite(self, inode, offset, data, rmw_runs, coalesce, key, then, ctx).step()

    def read_block_then(
        self, file_id: int, block_index: int, key: Any, then: Callable, ctx=None
    ) -> None:
        """Read exactly one file-system block (the cache fill path), for
        a caller that is not a process (see :meth:`read_then`):
        ``then(content, None)`` with the block's content as the file
        holds it when the read completes.  Counts no ``ufs.reads``."""
        physical = self.inode(file_id).physical_block(block_index)
        _CallbackBlock(self, file_id, block_index, physical, "read", 0, key, then, ctx).step()

    def write_block_then(
        self, file_id: int, block_index: int, data: Data, key: Any, then: Callable, ctx=None
    ) -> None:
        """Write exactly one file-system block, *data* being its whole
        content (the cache writeback path: no read-modify-write), for a
        caller that is not a process (see :meth:`read_then`): the
        content is stored at once and ``then(len(data), None)`` runs
        when the disk write completes.  Counts no ``ufs.writes``."""
        nbytes = len(data)
        if nbytes > self.block_size:
            raise UFSError("block write larger than block size")
        inode = self.inode(file_id)
        start = block_index * self.block_size
        if start + nbytes > inode.size_bytes:
            self._grow(inode, start + nbytes)
        physical = inode.physical_block(block_index)
        self._merge_written(inode, start, data)
        _CallbackBlock(self, file_id, block_index, physical, "write", nbytes, key, then, ctx).step()

    # -- internals ------------------------------------------------------------

    def _runs(self, inode: Inode, first_block: int, nblocks: int, coalesce: bool):
        runs = inode.physical_runs(first_block, nblocks)
        if coalesce:
            return runs
        # Uncoalesced: one request per block.
        split = []
        for logical, physical, run_len in runs:
            for k in range(run_len):
                split.append((logical + k, physical + k, 1))
        return split

    def _merge_written(self, inode: Inode, offset: int, data: Data) -> None:
        """Store *data* at *offset* block by block, lazily: a partly
        covered block keeps its prior content around the new piece."""
        bs = self.block_size
        written = self._written.setdefault(inode.file_id, {})
        pos = offset
        end = offset + len(data)
        while pos < end:
            block = pos // bs
            block_start = block * bs
            in_block = pos - block_start
            take = min(bs - in_block, end - pos)
            block_len = min(bs, inode.size_bytes - block_start)
            piece = data.slice(pos - offset, take)
            if take < block_len:
                prior = written.get(block)
                if prior is None:
                    key = self._synthetic_key(inode.file_id)
                    prior = SyntheticData(key, block_start, block_len)
                tail = in_block + take
                piece = concat_data(
                    [prior.slice(0, in_block), piece, prior.slice(tail, block_len - tail)]
                )
            written[block] = piece
            pos += take

    def __repr__(self) -> str:
        return f"<UFS {self.name} files={len(self._inodes)}>"


class _CallbackIO:
    """A UFS callback form in progress (:meth:`UFS.read_then`,
    :meth:`UFS.write_then`, :meth:`UFS.read_block_then` or
    :meth:`UFS.write_block_then`).

    Issues ``runs`` -- ``(logical, physical, nblocks)`` disk accesses of
    ``kind`` -- one at a time under the caller's ``key`` and trace
    context ``ctx``, then asks :meth:`finish` for the result.
    """

    __slots__ = ("ufs", "key", "then", "ctx", "offset", "kind", "runs", "idx")

    def __init__(self, ufs: UFS, offset: int, kind: str, runs: list, key: Any, then, ctx) -> None:
        self.ufs = ufs
        self.key = key
        self.then = then
        self.ctx = ctx
        self.offset = offset
        self.kind = kind
        self.runs = runs
        self.idx = 0

    def step(self, _value: Any = None, error: Optional[BaseException] = None) -> None:
        """Issue the next disk access, or finish; the disk's continuation."""
        if error is not None:
            self.then(None, error)
            return
        try:
            result = _MORE
            while result is _MORE:
                idx = self.idx
                if idx < len(self.runs):
                    self.idx = idx + 1
                    _logical, physical, run_len = self.runs[idx]
                    self.ufs.device.access_then(
                        self.kind, physical, run_len, self.key, self.step, self.ctx
                    )
                    return
                result = self.finish()
        except Exception as exc:
            self.then(None, exc)
            return
        self.then(result, None)

    def finish(self) -> Any:
        raise NotImplementedError


#: :meth:`_CallbackIO.finish`'s answer when it has queued more runs.
_MORE = object()


class _CallbackRead(_CallbackIO):
    __slots__ = ("file_id", "nbytes")

    def __init__(
        self, ufs: UFS, file_id: int, offset: int, nbytes: int, coalesce: bool, key: Any, then, ctx
    ) -> None:
        inode = ufs.inode(file_id)
        if offset < 0 or nbytes < 0 or offset + nbytes > inode.size_bytes:
            raise UFSError(
                f"read [{offset}, {offset + nbytes}) outside file {file_id} "
                f"of {inode.size_bytes} bytes"
            )
        runs = []
        if nbytes:
            bs = ufs.block_size
            first_block = offset // bs
            last_block = (offset + nbytes - 1) // bs
            runs = ufs._runs(inode, first_block, last_block - first_block + 1, coalesce)
        _CallbackIO.__init__(self, ufs, offset, "read", runs, key, then, ctx)
        self.file_id = file_id
        self.nbytes = nbytes

    def finish(self) -> Data:
        if self.nbytes == 0:
            return LiteralData(b"")
        ufs = self.ufs
        ufs._c_reads.add(1)
        ufs._c_bytes_read.add(self.nbytes)
        return ufs.content(self.file_id, self.offset, self.nbytes)


class _CallbackWrite(_CallbackIO):
    """Reads the read-modify-write edge blocks first, then merges the
    content and writes the runs."""

    __slots__ = ("inode", "data", "coalesce")

    def __init__(
        self,
        ufs: UFS,
        inode: Inode,
        offset: int,
        data: Data,
        rmw_runs: list,
        coalesce: bool,
        key: Any,
        then,
        ctx,
    ) -> None:
        _CallbackIO.__init__(self, ufs, offset, "read", rmw_runs, key, then, ctx)
        self.inode = inode
        self.data = data
        self.coalesce = coalesce

    def finish(self) -> Any:
        ufs = self.ufs
        nbytes = len(self.data)
        if self.kind == "read":
            # The edge blocks are read: merge the content, write the runs.
            ufs._merge_written(self.inode, self.offset, self.data)
            first = self.offset // ufs.block_size
            last = (self.offset + nbytes - 1) // ufs.block_size
            self.kind = "write"
            self.runs = ufs._runs(self.inode, first, last - first + 1, self.coalesce)
            self.idx = 0
            return _MORE
        ufs._c_writes.add(1)
        ufs._c_bytes_written.add(nbytes)
        return nbytes


class _CallbackBlock(_CallbackIO):
    """One block's disk read or write (:meth:`UFS.read_block_then`,
    :meth:`UFS.write_block_then`); a read's content is assembled when it
    completes."""

    __slots__ = ("file_id", "nbytes")

    def __init__(self, ufs, file_id, block_index, physical, kind, nbytes, key, then, ctx) -> None:
        run = [(block_index, physical, 1)]
        _CallbackIO.__init__(self, ufs, block_index * ufs.block_size, kind, run, key, then, ctx)
        self.file_id = file_id
        self.nbytes = nbytes

    def finish(self) -> Any:
        if self.kind == "write":
            return self.nbytes
        ufs = self.ufs
        length = min(ufs.block_size, ufs.inode(self.file_id).size_bytes - self.offset)
        return ufs.content(self.file_id, self.offset, length)

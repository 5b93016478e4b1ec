"""The UFS: files, block allocation, reads/writes with coalescing.

One UFS instance runs per I/O node.  Reads and writes spend simulated
time on the node's block device: a Fast Path read or write runs as a
callback chain (:meth:`UFS.read_then`, :meth:`UFS.write_then`), and the
buffered path's writes and block reads and writes are generators.  The
*content* returned is assembled from written blocks (each stored as the
lazy :class:`~repro.ufs.data.Data` the write described) and runs of
unwritten blocks (synthetic deterministic bytes), so round-trips are
exact and neither path materialises bytes.

Fast Path coalescing: a multi-block read/write issues one disk request
per *physically contiguous run* of blocks rather than one per block.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

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

    def write(
        self,
        file_id: int,
        offset: int,
        data: Data,
        coalesce: bool = True,
        ctx: Optional[TraceContext] = None,
    ):
        """Generator: write *data* at *offset*, growing the file as needed.

        Partially covered edge blocks require a read-modify-write: the
        block is read from disk, merged, and written back.
        """
        inode, rmw_runs = self._plan_write(file_id, offset, data)
        if len(data) == 0:
            return 0
        for _logical, physical, _nblocks in rmw_runs:
            yield from self.device.read_extent(physical, 1, ctx=ctx)
        for _logical, physical, run_len in self._commit_write(inode, offset, data, coalesce):
            yield from self.device.write_extent(physical, run_len, ctx=ctx)
        return self._wrote(len(data))

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
        """Callback form of :meth:`write` (see :meth:`read_then`): the
        read-modify-write edge blocks are read first, then the content
        is merged and the runs written; ``then(nbytes, None)`` at the end."""
        inode, rmw_runs = self._plan_write(file_id, offset, data)
        if len(data) == 0:
            then(0, None)
            return
        _CallbackWrite(self, inode, offset, data, rmw_runs, coalesce, key, then, ctx).step()

    def _plan_write(
        self, file_id: int, offset: int, data: Data
    ) -> Tuple[Inode, List[Tuple[int, int, int]]]:
        """Validate a write, grow the file to hold it and plan the
        one-block reads of its partially covered edge blocks, which need
        a read-modify-write (both forms)."""
        nbytes = len(data)
        if offset < 0:
            raise UFSError("negative offset")
        inode = self.inode(file_id)
        if nbytes == 0:
            return inode, []
        if offset + nbytes > inode.size_bytes:
            self._grow(inode, offset + nbytes)
        bs = self.block_size
        rmw_blocks = []
        if offset % bs != 0:
            rmw_blocks.append(offset // bs)
        if (offset + nbytes) % bs != 0:
            rmw_blocks.append((offset + nbytes - 1) // bs)
        return inode, [(b, inode.physical_block(b), 1) for b in dict.fromkeys(rmw_blocks)]

    def _commit_write(
        self, inode: Inode, offset: int, data: Data, coalesce: bool
    ) -> List[Tuple[int, int, int]]:
        """Merge a write's content (its edge blocks are read) and plan
        its disk runs (both forms)."""
        self._merge_written(inode, offset, data)
        bs = self.block_size
        first_block = offset // bs
        last_block = (offset + len(data) - 1) // bs
        return self._runs(inode, first_block, last_block - first_block + 1, coalesce)

    def _wrote(self, nbytes: int) -> int:
        """Count a finished write (both forms)."""
        self._c_writes.add(1)
        self._c_bytes_written.add(nbytes)
        return nbytes

    def read_block(self, file_id: int, block_index: int, ctx: Optional[TraceContext] = None):
        """Generator: read exactly one file-system block (cache fill path)."""
        inode = self.inode(file_id)
        physical = inode.physical_block(block_index)
        yield from self.device.read_extent(physical, 1, ctx=ctx)
        start = block_index * self.block_size
        length = min(self.block_size, inode.size_bytes - start)
        return self.content(file_id, start, length)

    def write_block(
        self, file_id: int, block_index: int, data: Data, ctx: Optional[TraceContext] = None
    ):
        """Generator: write exactly one file-system block."""
        if len(data) > self.block_size:
            raise UFSError("block write larger than block size")
        inode = self.inode(file_id)
        start = block_index * self.block_size
        if start + len(data) > inode.size_bytes:
            self._grow(inode, start + len(data))
        physical = inode.physical_block(block_index)
        self._merge_written(inode, start, data)
        yield from self.device.write_extent(physical, 1, ctx=ctx)
        return len(data)

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
    """A :meth:`UFS.read_then` or :meth:`UFS.write_then` in progress.

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
    content and writes the runs, as :meth:`UFS.write` does."""

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
        if self.kind == "read":
            self.kind = "write"
            self.runs = self.ufs._commit_write(self.inode, self.offset, self.data, self.coalesce)
            self.idx = 0
            return _MORE
        return self.ufs._wrote(len(self.data))

"""Append-only write-ahead log with CRC-framed records.

The durability tier's sequencing rule is *WAL-before-apply*: every
mutation of a durable store is appended (and, in sync mode, fsynced)
here **before** the in-memory tree changes, so a crash at any instant
loses at most the operations whose append never returned.

Frame format — the unit of torn-tail detection::

    <u32 little-endian>  body length in bytes (never 0)
    <u32 little-endian>  CRC32 of the body
    <body>               pickled logical operation tuple

A frame is valid only if the full header and body are present and the
CRC matches.  Because frames are self-delimiting, a partially written
frame can never be confused with a valid one, and a valid frame can
never be followed by readable garbage.

Reservation.  An open log keeps zero-filled space ahead of its frames
(:data:`_RESERVE_BYTES` at a time, through :meth:`FileOps.preallocate`)
and writes each frame at its *logical end*, the end of its last frame,
inside that space.  A per-op fsync then commits the frame's bytes and
not a new file size, which is the dominant cost of a small synced
append.  :meth:`WriteAheadLog.close` cuts the unused reservation, so a
cleanly closed log holds its frames and nothing else.

End-of-log rule.  :func:`scan_wal` walks frames from offset 0 and ends
the log at the first header whose body length is 0 (the reservation's
zeros), or at the first incomplete frame, CRC mismatch or undecodable
body.  Everything before that point is the *durable prefix*.  Past it,
only non-zero bytes are a torn tail, which recovery reports and
truncates; zeros are reserved space.  A crash tears at most the last
append, a prefix of one frame, so a torn tail ends within the frame its
header claims (a zero-length header claims none).  A non-zero byte past
that was written by a later append: the bad frame lies in the middle of
the log, and the scan raises :class:`~repro.errors.CorruptWalError`
rather than drop the acknowledged frames after it.  A log reopened
after a crash therefore resumes at the end of its last valid frame,
never at its file size: a frame written after the zeros would sit past
the end of the log and be lost.

Operations are *logical* and point-based (``("insert", point,
payload)``, never curve keys), so a log written under one curve
replays correctly even across ``migrate-cutover`` frames: replay
re-keys each point under whatever curve the store holds when the frame
is applied — exactly what the original execution did.

:class:`FileOps` is the single seam between the durability tier and
the filesystem.  Production uses it as-is; the crash-injection harness
(:class:`~repro.storage.crash.CrashInjector`) subclasses it to kill
the process-under-test at any chosen write/fsync/rename boundary.
"""

from __future__ import annotations

import os
import pickle
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Optional, Tuple, Union

from ..errors import CorruptWalError, WalError
from ..obs.metrics import METRICS
from ..obs.trace import span as _obs_span

__all__ = [
    "FRAME_HEADER",
    "FileOps",
    "WalScan",
    "WriteAheadLog",
    "decode_op",
    "encode_frame",
    "encode_op",
    "scan_wal",
]

#: ``(body_length, body_crc32)`` — both unsigned 32-bit little-endian.
FRAME_HEADER = struct.Struct("<II")

#: Zero-filled bytes a log reserves past the frame that outgrows its
#: reservation.  On ext4 (virtio disk, 2 cores, Python 3.11; 5
#: interleaved runs of 2,000 40-byte appends, each fsynced), the median
#: append took 165 us when it grew the file and 64-87 us inside
#: fallocated space, with no difference past the noise between
#: reservations of 16 KiB and 1 MiB.  64 KiB holds about 1,600 such
#: frames, so one append in 1,600 pays for a size change, and a small
#: log does not allocate megabytes.
_RESERVE_BYTES = 64 * 1024

_APPENDS = METRICS.counter("repro_wal_appends_total", "operation frames appended to the WAL")
_APPEND_BYTES = METRICS.counter("repro_wal_bytes_total", "bytes appended to the WAL")
_FSYNCS = METRICS.counter("repro_wal_fsyncs_total", "fsync calls issued by the WAL")
_APPEND_LATENCY = METRICS.histogram(
    "repro_wal_append_latency_seconds", "wall time of WAL append (including any fsync)"
)


class FileOps:
    """Primitive filesystem operations behind the durability tier.

    Every byte the WAL or checkpoint writer puts on disk goes through
    one of these methods, making the class the complete enumeration of
    crash points: a fault injector overriding the mutators can
    simulate a process death at every write boundary the tier has.
    ``write`` flushes to the OS after every call so that "crash after
    write, before fsync" leaves the bytes in the file (torn) while
    "power loss" (the injector's *lost* mode) can still drop anything
    not yet fsynced.
    """

    def open_append(self, path: Union[str, Path]) -> BinaryIO:
        """Open the existing log at ``path`` to append frames to it.

        Read-write and never truncating, but not in ``O_APPEND`` mode:
        the log writes each frame at its logical end, inside the space
        it reserved, so the caller seeks there first.
        """
        return open(path, "r+b")

    def open_write(self, path: Union[str, Path]) -> BinaryIO:
        """Open ``path`` for writing from scratch (truncates)."""
        return open(path, "wb")

    def write(self, handle: BinaryIO, data: bytes) -> None:
        """Write ``data`` and flush it to the OS (not yet durable)."""
        handle.write(data)
        handle.flush()

    def fsync(self, handle: BinaryIO) -> None:
        """Force ``handle``'s written bytes to stable storage."""
        os.fsync(handle.fileno())

    def preallocate(self, handle: BinaryIO, size: int) -> None:
        """Reserve ``handle``'s file up to ``size`` bytes.

        The file grows to at least ``size`` bytes, and the new bytes
        read as zeros.  Like a write, the new size is durable only once
        an fsync of ``handle`` returns; writes into the reserved space
        afterwards change no file size, so their fsync commits only
        their own bytes.
        """
        fd = handle.fileno()
        if hasattr(os, "posix_fallocate"):
            os.posix_fallocate(fd, 0, size)
        elif os.fstat(fd).st_size < size:  # no fallocate (macOS): a sparse extension
            os.ftruncate(fd, size)

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        """Atomically rename ``src`` over ``dst`` (the commit point)."""
        os.replace(src, dst)

    def unlink(self, path: Union[str, Path]) -> None:
        """Remove ``path`` if it exists (cleanup after a commit)."""
        Path(path).unlink(missing_ok=True)

    def truncate(self, path: Union[str, Path], size: int) -> None:
        """Cut ``path`` down to ``size`` bytes (torn-tail repair)."""
        os.truncate(path, size)

    def fsync_dir(self, path: Union[str, Path]) -> None:
        """Force a directory's entries (renames, unlinks) to disk."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def write_file(self, path: Union[str, Path], data: bytes) -> None:
        """Write ``data`` to ``path`` in full and fsync it."""
        handle = self.open_write(path)
        try:
            self.write(handle, data)
            self.fsync(handle)
        finally:
            handle.close()


def encode_op(op: Tuple[Any, ...]) -> bytes:
    """Serialize one logical operation tuple."""
    return pickle.dumps(op, protocol=4)


def decode_op(body: bytes) -> Tuple[Any, ...]:
    """Inverse of :func:`encode_op`."""
    return pickle.loads(body)


def encode_frame(body: bytes) -> bytes:
    """Wrap ``body`` in the length+CRC32 frame header."""
    return FRAME_HEADER.pack(len(body), zlib.crc32(body)) + body


@dataclass(frozen=True)
class WalScan:
    """Result of walking a WAL file's frames from the start."""

    #: ``(end_offset, op)`` per valid frame, in file order; the end
    #: offset is the file position just past the frame, so a replay
    #: can resume after any checkpoint's recorded ``wal_offset``.
    frames: Tuple[Tuple[int, Tuple[Any, ...]], ...]
    #: End of the last valid frame: the log's logical end, where the
    #: next frame goes and where recovery cuts a torn tail.
    valid_size: int
    #: Bytes from ``valid_size`` to the last non-zero byte of the file:
    #: a torn or corrupt tail, or 0.  Zeros past it are reserved space,
    #: not torn.
    torn_bytes: int
    #: Actual file size on disk, reserved space included.
    file_size: int


def scan_wal(path: Union[str, Path]) -> WalScan:
    """Read every valid frame of the log at ``path``.

    Ends the log at the first header with a zero body length — the
    reserved space past the last frame — or at the first incomplete
    frame, CRC mismatch or undecodable body, the torn tail a crash
    mid-append leaves behind.  Reports where the durable prefix ends
    and how many non-zero bytes follow it, so the caller can truncate.
    Raises :class:`~repro.errors.CorruptWalError` when a non-zero byte
    lies past the end of the frame the bad header claims: a later append
    wrote it, so the bad frame is not the log's torn last one.
    """
    data = Path(path).read_bytes()
    frames = []
    offset = 0
    while offset + FRAME_HEADER.size <= len(data):
        length, crc = FRAME_HEADER.unpack_from(data, offset)
        if length == 0:
            break
        body_start = offset + FRAME_HEADER.size
        body_end = body_start + length
        if body_end > len(data):
            break
        body = data[body_start:body_end]
        if zlib.crc32(body) != crc:
            break
        try:
            op = decode_op(body)
        except Exception:
            break
        frames.append((body_end, op))
        offset = body_end
    torn_bytes = len(data[offset:].rstrip(b"\0"))
    if offset + FRAME_HEADER.size <= len(data):  # stopped at a bad header
        length, _ = FRAME_HEADER.unpack_from(data, offset)
        if torn_bytes > FRAME_HEADER.size + length:
            raise CorruptWalError(path, offset)
    return WalScan(
        frames=tuple(frames),
        valid_size=offset,
        torn_bytes=torn_bytes,
        file_size=len(data),
    )


class WriteAheadLog:
    """An append-only log of logical operations, fsynced on commit.

    ``sync=True`` (the default) makes every :meth:`append` durable
    before it returns — the store's acknowledgement of the operation.
    ``sync=False`` trades that guarantee for throughput (appends are
    flushed to the OS but only fsynced by :meth:`sync` or a
    checkpoint); a crash may then lose a suffix of acknowledged
    operations, but never tears the middle of the log.

    ``end`` is the log's logical end, where the next frame goes.  0
    starts a new log: the file is created, or truncated if a stale one
    is in the way.  A log reopened after a crash must be given the
    ``valid_size`` :func:`scan_wal` found, with any torn tail already
    truncated: the zeros of its reservation follow that point.  None
    takes the file's size (0 if it is missing), which is the logical
    end of a log that was closed cleanly.
    """

    def __init__(
        self,
        path: Union[str, Path],
        ops: Optional[FileOps] = None,
        sync: bool = True,
        end: Optional[int] = None,
    ) -> None:
        self._path = Path(path)
        self._ops = ops if ops is not None else FileOps()
        self._sync = sync
        self._handle: Optional[BinaryIO] = None
        if end is None:
            end = self._path.stat().st_size if self._path.exists() else 0
        self._size = end
        #: File size while open: bytes ``[size, reserved)`` are zeros.
        self._reserved = 0

    @property
    def path(self) -> Path:
        """Location of the log file."""
        return self._path

    @property
    def size(self) -> int:
        """The logical end: bytes of frames so far, and the offset of
        the next frame (the file may be longer by its reservation)."""
        return self._size

    def _ensure_open(self) -> BinaryIO:
        if self._handle is None:
            if self._size:
                self._handle = self._ops.open_append(self._path)
                self._handle.seek(self._size)
            else:
                self._handle = self._ops.open_write(self._path)
            self._reserved = os.fstat(self._handle.fileno()).st_size
        return self._handle

    def append(self, op: Tuple[Any, ...], sync: Optional[bool] = None) -> int:
        """Append one operation frame; return the new end offset.

        The frame goes at the logical end, inside the reservation; a
        frame that would outgrow it first reserves :data:`_RESERVE_BYTES`
        past its own end.  ``sync`` overrides the log's default
        durability for this one frame (the header frame is always
        forced out, for example).
        """
        if not isinstance(op, tuple) or not op:
            raise WalError(f"WAL op must be a non-empty tuple, got {op!r}")
        synced = self._sync if sync is None else sync
        with _obs_span("wal_append", kind="wal") as sp:
            started = time.perf_counter() if METRICS.enabled else 0.0
            frame = encode_frame(encode_op(op))
            handle = self._ensure_open()
            end = self._size + len(frame)
            if end > self._reserved:
                self._ops.preallocate(handle, end + _RESERVE_BYTES)
                self._reserved = end + _RESERVE_BYTES
            self._ops.write(handle, frame)
            self._size = end
            if synced:
                self._ops.fsync(handle)
            sp.set("op", str(op[0]))
            sp.set("bytes", len(frame))
            sp.set("synced", synced)
            if started:  # 0.0: metrics were off as the append began
                _APPENDS.inc()
                _APPEND_BYTES.inc(len(frame))
                if synced:
                    _FSYNCS.inc()
                _APPEND_LATENCY.observe(time.perf_counter() - started)
        return self._size

    def sync(self) -> None:
        """Force every appended frame to stable storage."""
        if self._handle is not None:
            with _obs_span("wal_fsync", kind="wal"):
                self._ops.fsync(self._handle)
                _FSYNCS.inc()

    def close(self) -> None:
        """Cut the unused reservation and close the file handle
        (reopened lazily if needed), so a closed log holds its frames
        and nothing else."""
        if self._handle is None:
            return
        try:
            if self._reserved > self._size:
                self._ops.truncate(self._path, self._size)
        finally:
            self._handle.close()
            self._handle = None

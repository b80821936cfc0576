"""Append-only write-ahead log with CRC-framed records.

The durability tier's sequencing rule is *WAL-before-apply*: every
mutation of a durable store is appended (and, in sync mode, fsynced)
here **before** the in-memory trees change, so a crash at any instant
loses at most the operations whose append never returned.

Frame format — the unit of torn-tail detection::

    <u32 little-endian>  body length in bytes
    <u32 little-endian>  CRC32 of the body
    <body>               pickled logical operation tuple

A frame is valid only if the full header and body are present and the
CRC matches.  :func:`scan_wal` walks frames from offset 0 and stops at
the first violation; everything before it is the *durable prefix*,
everything after is a torn tail that recovery truncates.  Because
frames are self-delimiting, a partially written frame can never be
confused with a valid one, and a valid frame can never be followed by
readable garbage.

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

from ..errors import WalError
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
        """Open ``path`` for appending, creating it if missing."""
        return open(path, "ab")

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
    #: File size of the durable prefix (end of the last valid frame).
    valid_size: int
    #: Actual file size on disk.
    file_size: int

    @property
    def torn_bytes(self) -> int:
        """Bytes past the last valid frame (a torn tail, or zero)."""
        return self.file_size - self.valid_size


def scan_wal(path: Union[str, Path]) -> WalScan:
    """Read every valid frame of the log at ``path``.

    Stops at the first incomplete frame, CRC mismatch, or undecodable
    body — the torn tail a crash mid-append leaves behind — and reports
    where the durable prefix ends so the caller can truncate.
    """
    data = Path(path).read_bytes()
    frames = []
    offset = 0
    while offset + FRAME_HEADER.size <= len(data):
        length, crc = FRAME_HEADER.unpack_from(data, offset)
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
    return WalScan(frames=tuple(frames), valid_size=offset, file_size=len(data))


class WriteAheadLog:
    """An append-only log of logical operations, fsynced on commit.

    ``sync=True`` (the default) makes every :meth:`append` durable
    before it returns — the store's acknowledgement of the operation.
    ``sync=False`` trades that guarantee for throughput (appends are
    flushed to the OS but only fsynced by :meth:`sync` or a
    checkpoint); a crash may then lose a suffix of acknowledged
    operations, but never tears the middle of the log.
    """

    def __init__(
        self,
        path: Union[str, Path],
        ops: Optional[FileOps] = None,
        sync: bool = True,
    ) -> None:
        self._path = Path(path)
        self._ops = ops if ops is not None else FileOps()
        self._sync = sync
        self._handle: Optional[BinaryIO] = None
        self._size = self._path.stat().st_size if self._path.exists() else 0

    @property
    def path(self) -> Path:
        """Location of the log file."""
        return self._path

    @property
    def size(self) -> int:
        """Bytes appended so far (the offset of the next frame)."""
        return self._size

    def _ensure_open(self) -> BinaryIO:
        if self._handle is None:
            self._handle = self._ops.open_append(self._path)
        return self._handle

    def append(self, op: Tuple[Any, ...], sync: Optional[bool] = None) -> int:
        """Append one operation frame; return the new end offset.

        ``sync`` overrides the log's default durability for this one
        frame (the header frame is always forced out, for example).
        """
        if not isinstance(op, tuple) or not op:
            raise WalError(f"WAL op must be a non-empty tuple, got {op!r}")
        synced = self._sync if sync is None else sync
        with _obs_span("wal_append", kind="wal") as sp:
            started = time.perf_counter() if METRICS.enabled else 0.0
            frame = encode_frame(encode_op(op))
            handle = self._ensure_open()
            self._ops.write(handle, frame)
            self._size += len(frame)
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
        """Close the underlying file handle (reopened lazily if needed)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

"""Fault injection for the durability tier: die at any write boundary.

:class:`CrashInjector` subclasses :class:`~repro.storage.wal.FileOps`
— the single seam every durable byte passes through — and raises
:class:`InjectedCrash` out of the N-th mutating filesystem call.  The
differential crash-recovery suite enumerates N over every call the
workload makes, so each WAL append, each fsync, each checkpoint write,
the manifest rename and the post-commit unlinks all get killed at
least once, in both failure models:

* ``mode="torn"`` — the process dies but the OS survives: everything
  written (flushed) before the crash stays in the files, and the call
  being killed leaves a *partial* write behind (half the data) — the
  torn tail the WAL's CRC framing must detect;
* ``mode="lost"`` — power loss: in addition, every byte written since
  its file's last fsync is lost.  Each file rolls back to its last
  fsynced *logical* end, where the first of those writes began, not
  to its last fsynced size: a WAL writes its frames into space it
  reserved earlier, so an unsynced frame sits inside a size that an
  fsync already made durable.  That reserved space comes back as the
  zeros it held; a size an fsync never committed is cut off.  This is
  the harshest state the fsync-on-commit discipline must survive.

A rename (`replace`) and a reservation (`preallocate`) are killed by
*not performing them* — a rename is atomic in the model, as
`os.replace` is on the journaled filesystems the design assumes, so
the only crash states are before/after.  The injector also counts
calls when ``fail_after`` is None, which is how the suite sizes its
enumeration (dry run first, then one injected run per boundary).

``InjectedCrash`` deliberately derives from neither ``ReproError`` nor
``StorageError``: library code that caught it would be "catching" a
process death, which no code can do — the suite must see it escape.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Dict, Union

from .wal import FileOps

__all__ = ["CrashInjector", "InjectedCrash"]


class InjectedCrash(BaseException):
    """The simulated process death raised by :class:`CrashInjector`.

    A ``BaseException`` on purpose: a real crash does not flow through
    ``except Exception`` handlers, and neither should its simulation.
    """


class CrashInjector(FileOps):
    """A :class:`FileOps` that kills the store at a chosen write boundary.

    Parameters
    ----------
    fail_after:
        Die on the ``fail_after``-th mutating call (1-based).  None
        never crashes — useful for counting a workload's boundaries.
    mode:
        ``"torn"`` (process death, OS survives) or ``"lost"`` (power
        loss — unsynced bytes are rolled back too).
    """

    def __init__(self, fail_after: int = 0, mode: str = "torn") -> None:
        if mode not in ("torn", "lost"):
            raise ValueError(f"mode must be 'torn' or 'lost', got {mode!r}")
        self.fail_after = fail_after
        self.mode = mode
        #: Mutating calls observed so far.
        self.calls = 0
        #: Per file: its size at its last fsync, and the offset of the
        #: first byte written since (absent: nothing written since).
        self._synced: Dict[str, int] = {}
        self._unsynced: Dict[str, int] = {}

    # -- bookkeeping ---------------------------------------------------
    def _tick(self) -> bool:
        self.calls += 1
        return bool(self.fail_after) and self.calls >= self.fail_after

    def _crash(self) -> None:
        if self.mode == "lost":
            for path, size in self._synced.items():
                if not os.path.exists(path):
                    continue
                end = min(size, self._unsynced.get(path, size))
                if os.path.getsize(path) > end:
                    os.truncate(path, end)
                if end < size:
                    os.truncate(path, size)  # the durable reservation, zeros again
        raise InjectedCrash(
            f"injected {self.mode} crash at file operation {self.calls}"
        )

    def _note_synced(self, path: str, size: int) -> None:
        self._synced[path] = size
        self._unsynced.pop(path, None)

    # -- instrumented operations ---------------------------------------
    def open_append(self, path: Union[str, Path]) -> BinaryIO:
        handle = super().open_append(path)
        # Bytes present when a log is (re)opened were fsynced by the
        # previous binding (initialize/checkpoint always sync), so they
        # survive power loss.
        self._synced.setdefault(str(path), os.fstat(handle.fileno()).st_size)
        return handle

    def open_write(self, path: Union[str, Path]) -> BinaryIO:
        handle = super().open_write(path)
        self._note_synced(str(path), 0)
        return handle

    def write(self, handle: BinaryIO, data: bytes) -> None:
        self._synced.setdefault(handle.name, 0)
        self._unsynced.setdefault(handle.name, handle.tell())
        if self._tick():
            # A torn write: half the payload reaches the file.
            super().write(handle, data[: max(1, len(data) // 2)])
            self._crash()
        super().write(handle, data)

    def fsync(self, handle: BinaryIO) -> None:
        if self._tick():
            self._crash()
        super().fsync(handle)
        self._note_synced(handle.name, os.fstat(handle.fileno()).st_size)

    def preallocate(self, handle: BinaryIO, size: int) -> None:
        if self._tick():
            self._crash()
        super().preallocate(handle, size)

    def replace(self, src: Union[str, Path], dst: Union[str, Path]) -> None:
        if self._tick():
            self._crash()
        super().replace(src, dst)
        self._note_synced(str(dst), self._synced.pop(str(src), 0))

    def unlink(self, path: Union[str, Path]) -> None:
        if self._tick():
            self._crash()
        super().unlink(path)
        self._synced.pop(str(path), None)
        self._unsynced.pop(str(path), None)

    def truncate(self, path: Union[str, Path], size: int) -> None:
        if self._tick():
            self._crash()
        super().truncate(path, size)
        self._synced[str(path)] = min(self._synced.get(str(path), size), size)

    def fsync_dir(self, path: Union[str, Path]) -> None:
        if self._tick():
            self._crash()
        super().fsync_dir(path)

"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch everything coming out of this package with a single ``except``
clause while still distinguishing the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` package."""


class InvalidUniverseError(ReproError, ValueError):
    """A universe (grid) was constructed with unusable parameters.

    Examples: non-positive side length, a side length that is not a power of
    two for a curve that requires one, or a dimension the curve does not
    support.
    """


class OutOfUniverseError(ReproError, ValueError):
    """A cell coordinate or curve key lies outside the universe."""


class InvalidQueryError(ReproError, ValueError):
    """A query rectangle is malformed or does not fit in the universe."""


class CurveCapabilityError(ReproError, TypeError):
    """An operation requires a capability the curve does not provide.

    For example, the boundary-shell clustering algorithm is only valid for
    continuous curves and refuses to run on the Z curve.
    """


class UnknownCurveError(ReproError, KeyError):
    """The curve registry has no entry under the requested name."""


class StorageError(ReproError):
    """Base class for failures in the simulated storage substrate."""


class PageError(StorageError, ValueError):
    """A page id handed to the simulated disk is invalid."""


class TreeError(StorageError):
    """The B+-tree was used inconsistently (e.g. duplicate key insert)."""


class WalError(StorageError):
    """The write-ahead log was misused or contains an unreadable frame."""


class RecoveryError(StorageError):
    """A durable store directory cannot be recovered into a live store.

    Raised when the directory holds no durable store at all, when the
    checkpoint manifest or a checkpointed page image fails its CRC, when
    the log's header frame (the store's construction parameters) is
    missing, or when the log is corrupt in its middle
    (:class:`CorruptWalError`).  A torn WAL *tail* is not an error —
    recovery truncates it and reports the dropped bytes instead.
    """


class CorruptWalError(RecoveryError):
    """A bad WAL frame that later writes follow: mid-log corruption.

    A crash tears at most the last append, which leaves a prefix of one
    frame; bytes past the end of the frame a bad header claims were
    written after it, so the frames there hold acknowledged operations.
    Recovery refuses such a log and truncates nothing.  ``path`` is the
    log file and ``offset`` the bad frame's first byte.
    """

    def __init__(self, path, offset: int) -> None:
        self.path = path
        self.offset = offset
        super().__init__(
            f"corrupt WAL {path}: the frame at offset {offset} is unreadable "
            "and later writes follow it, so it is no torn tail"
        )

"""Checkpointed page files: binary page images + an atomic manifest.

A checkpoint materializes a durable store's record set as page images
in a generation-named binary file (``pages-<G>.bin``) and then commits
it by atomically renaming a JSON *manifest* over ``manifest.json``.
The manifest is the root pointer of the durable directory: it names
the WAL file and offset recovery should replay from, indexes every
page image (offset, length, CRC32), and embeds the store's
construction parameters.

The commit protocol is *atomic-manifest-rename*:

1. write ``pages-<G>.bin`` in full and fsync it;
2. write the manifest to a temp file, fsync it;
3. ``os.replace`` the temp file over ``manifest.json`` — the single
   atomic commit point — and fsync the directory.

A crash before step 3 leaves the previous manifest (and the files it
names) fully intact; a crash after it leaves the new checkpoint fully
committed.  There is no intermediate state, which is what the
crash-injection suite proves by killing between every pair of steps.

Page images store ``(point, payload)`` pairs — logical records, not
curve keys — in flush order, so loading them with ``bulk_load`` under
the manifest's recorded curve reproduces the exact key-ordered layout
(including the bucket order of duplicate points) the store had at
checkpoint time.
"""

from __future__ import annotations

import json
import pickle
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import RecoveryError
from .wal import FileOps

__all__ = [
    "FORMAT",
    "MANIFEST_NAME",
    "CheckpointManifest",
    "load_manifest",
    "load_pages",
    "pages_file_name",
    "wal_file_name",
    "write_checkpoint",
]

#: The durable directory's root pointer (atomically replaced).
MANIFEST_NAME = "manifest.json"

#: On-disk format of a durable directory: the WAL's frames and op
#: tuples, the page images and this manifest.  The manifest and every
#: WAL header frame record it; a directory without the field predates
#: it and is this format.  Recovery refuses any other value.
FORMAT = 1


def wal_file_name(generation: int) -> str:
    """Name of the WAL file opened at checkpoint ``generation``."""
    return f"wal-{generation:08d}.log"


def pages_file_name(generation: int) -> str:
    """Name of the page-image file written by checkpoint ``generation``."""
    return f"pages-{generation:08d}.bin"


@dataclass(frozen=True)
class CheckpointManifest:
    """The committed root pointer of a durable store directory."""

    #: Monotonic checkpoint counter (0 = never checkpointed).
    generation: int
    #: WAL file recovery replays, relative to the durable directory.
    wal_file: str
    #: Offset in ``wal_file`` where replay resumes (frames at or before
    #: this offset are already folded into the page images).
    wal_offset: int
    #: Page-image file, relative to the durable directory.
    pages_file: str
    #: ``(offset, length, crc32)`` of each page image in ``pages_file``.
    page_index: Tuple[Tuple[int, int, int], ...]
    #: Store construction parameters (kind, curve spec, capacities…).
    state: Dict[str, Any]
    #: Records folded into the page images.
    record_count: int
    #: On-disk format the directory was written in (:data:`FORMAT`).
    format: int = FORMAT

    def to_json(self) -> bytes:
        payload = {
            "format": self.format,
            "generation": self.generation,
            "wal_file": self.wal_file,
            "wal_offset": self.wal_offset,
            "pages_file": self.pages_file,
            "page_index": [list(entry) for entry in self.page_index],
            "state": self.state,
            "record_count": self.record_count,
        }
        # No indent: an indented dump runs Python's pure-Python encoder.
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes) -> "CheckpointManifest":
        """Parse a committed manifest.

        Raises :class:`RecoveryError` for unreadable bytes, and for a
        ``format`` other than :data:`FORMAT` before reading any other
        field; a manifest without the field is format 1.
        """
        try:
            payload = json.loads(data.decode("utf-8"))
            found = payload.get("format", 1)
        except (ValueError, AttributeError) as exc:
            raise RecoveryError(f"unreadable checkpoint manifest: {exc}") from exc
        if found != FORMAT:
            raise RecoveryError(
                f"checkpoint manifest has on-disk format {found!r}; "
                f"this version reads format {FORMAT}"
            )
        try:
            return cls(
                generation=int(payload["generation"]),
                wal_file=str(payload["wal_file"]),
                wal_offset=int(payload["wal_offset"]),
                pages_file=str(payload["pages_file"]),
                page_index=tuple(
                    (int(off), int(length), int(crc))
                    for off, length, crc in payload["page_index"]
                ),
                state=dict(payload["state"]),
                record_count=int(payload["record_count"]),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise RecoveryError(f"unreadable checkpoint manifest: {exc}") from exc


def write_checkpoint(
    root: Union[str, Path],
    ops: FileOps,
    generation: int,
    pages: Sequence[List[Tuple[Tuple[int, ...], Any]]],
    state: Dict[str, Any],
    wal_file: str,
    wal_offset: int,
) -> CheckpointManifest:
    """Write page images for ``pages`` and commit them via the manifest.

    ``pages`` is the store's record set pre-cut into page-capacity
    chunks of ``(point, payload)`` pairs.  Every byte goes through
    ``ops`` so the crash injector sees each write boundary.  The
    returned manifest is committed (the rename has happened) when this
    function returns.
    """
    root = Path(root)
    blobs = [pickle.dumps(page, protocol=4) for page in pages]
    index: List[Tuple[int, int, int]] = []
    offset = 0
    for blob in blobs:
        index.append((offset, len(blob), zlib.crc32(blob)))
        offset += len(blob)
    pages_file = pages_file_name(generation)
    ops.write_file(root / pages_file, b"".join(blobs))
    manifest = CheckpointManifest(
        generation=generation,
        wal_file=wal_file,
        wal_offset=wal_offset,
        pages_file=pages_file,
        page_index=tuple(index),
        state=state,
        record_count=sum(len(page) for page in pages),
    )
    tmp = root / (MANIFEST_NAME + ".tmp")
    ops.write_file(tmp, manifest.to_json())
    ops.replace(tmp, root / MANIFEST_NAME)
    ops.fsync_dir(root)
    return manifest


def load_manifest(root: Union[str, Path]) -> Optional[CheckpointManifest]:
    """The committed manifest of ``root``, or None if never checkpointed."""
    path = Path(root) / MANIFEST_NAME
    if not path.exists():
        return None
    return CheckpointManifest.from_json(path.read_bytes())


def load_pages(
    root: Union[str, Path],
    manifest: CheckpointManifest,
) -> List[List[Tuple[Tuple[int, ...], Any]]]:
    """Read and CRC-check every page image named by ``manifest``."""
    path = Path(root) / manifest.pages_file
    if not path.exists():
        raise RecoveryError(f"manifest names missing page file {manifest.pages_file}")
    data = path.read_bytes()
    pages: List[List[Tuple[Tuple[int, ...], Any]]] = []
    for position, (offset, length, crc) in enumerate(manifest.page_index):
        blob = data[offset : offset + length]
        if len(blob) != length or zlib.crc32(blob) != crc:
            raise RecoveryError(
                f"page image {position} of {manifest.pages_file} fails its CRC"
            )
        pages.append(pickle.loads(blob))
    return pages

"""Unit tests for the WAL frame codec and torn-tail detection."""

import hashlib
import zlib

import pytest

from repro.errors import CorruptWalError, WalError
from repro.storage.wal import (
    FRAME_HEADER,
    FileOps,
    WriteAheadLog,
    encode_frame,
    encode_op,
    scan_wal,
)


def _append_ops(path, ops):
    wal = WriteAheadLog(path)
    for op in ops:
        wal.append(op)
    wal.close()
    return wal


class TestFrameCodec:
    def test_roundtrip_through_scan(self, tmp_path):
        ops = [("header", {"kind": "single"}), ("insert", (1, 2), "a"), ("flush",)]
        path = tmp_path / "wal.log"
        _append_ops(path, ops)
        scan = scan_wal(path)
        assert [op for _, op in scan.frames] == ops
        assert scan.torn_bytes == 0
        assert scan.valid_size == scan.file_size == path.stat().st_size

    def test_end_offsets_are_cumulative_frame_ends(self, tmp_path):
        path = tmp_path / "wal.log"
        _append_ops(path, [("insert", (0, 0), None), ("flush",)])
        scan = scan_wal(path)
        first_end, _ = scan.frames[0]
        body = encode_op(("insert", (0, 0), None))
        assert first_end == FRAME_HEADER.size + len(body)
        assert scan.frames[1][0] == scan.valid_size

    def test_append_returns_growing_offsets(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        a = wal.append(("insert", (0, 0), None))
        b = wal.append(("insert", (1, 1), None))
        assert 0 < a < b == wal.size
        wal.close()

    def test_append_rejects_non_tuple_ops(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        with pytest.raises(WalError):
            wal.append(["not", "a", "tuple"])
        with pytest.raises(WalError):
            wal.append(())

    def test_reopen_resumes_at_file_size(self, tmp_path):
        path = tmp_path / "wal.log"
        first = _append_ops(path, [("flush",)])
        wal = WriteAheadLog(path)
        assert wal.size == first.size == path.stat().st_size
        wal.append(("flush",))
        assert len(scan_wal(path).frames) == 2
        wal.close()


class TestTornTailDetection:
    def test_truncated_mid_body_drops_only_last_frame(self, tmp_path):
        path = tmp_path / "wal.log"
        _append_ops(path, [("insert", (1, 1), "a"), ("insert", (2, 2), "b")])
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        scan = scan_wal(path)
        assert [op for _, op in scan.frames] == [("insert", (1, 1), "a")]
        assert scan.torn_bytes > 0

    def test_truncated_mid_header_drops_only_last_frame(self, tmp_path):
        path = tmp_path / "wal.log"
        _append_ops(path, [("flush",), ("flush",)])
        full = scan_wal(path)
        cut = full.frames[0][0] + FRAME_HEADER.size // 2
        path.write_bytes(path.read_bytes()[:cut])
        scan = scan_wal(path)
        assert len(scan.frames) == 1
        assert scan.valid_size == full.frames[0][0]

    def test_corrupt_crc_stops_the_scan(self, tmp_path):
        """A CRC mismatch in the middle of the log is corruption, not a
        torn tail: the scan stops there and refuses the log."""
        path = tmp_path / "wal.log"
        _append_ops(path, [("flush",), ("insert", (1, 1), "a"), ("flush",)])
        data = bytearray(path.read_bytes())
        first_end = scan_wal(path).frames[0][0]
        data[first_end + FRAME_HEADER.size] ^= 0xFF  # flip a body byte
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptWalError) as raised:
            scan_wal(path)
        assert (raised.value.path, raised.value.offset) == (path, first_end)

    def test_corrupt_crc_in_the_last_frame_is_a_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        _append_ops(path, [("flush",), ("insert", (1, 1), "a")])
        data = bytearray(path.read_bytes())
        first_end = scan_wal(path).frames[0][0]
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        scan = scan_wal(path)
        assert [op for _, op in scan.frames] == [("flush",)]
        assert scan.torn_bytes == len(data) - first_end

    def test_garbage_tail_after_valid_frames(self, tmp_path):
        path = tmp_path / "wal.log"
        _append_ops(path, [("flush",)])
        valid = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef" * 5)
        scan = scan_wal(path)
        assert scan.valid_size == valid
        assert scan.torn_bytes == 20

    def test_valid_frame_cannot_hide_behind_a_bad_one(self, tmp_path):
        # A frame with a bad CRC followed by a perfectly valid frame:
        # the scan must neither replay past the bad frame (replaying
        # past a hole would reorder history) nor drop the valid frame as
        # a torn tail.  It refuses the log.
        path = tmp_path / "wal.log"
        body = encode_op(("flush",))
        bad = FRAME_HEADER.pack(len(body), zlib.crc32(body) ^ 1) + body
        path.write_bytes(bad + encode_frame(body))
        with pytest.raises(CorruptWalError) as raised:
            scan_wal(path)
        assert raised.value.offset == 0


class TestReservation:
    """A live log writes into zeros it reserved; a closed one holds none."""

    OPS = [
        ("header", {"kind": "single", "curve": ["onion", 8, 2], "page_capacity": 4}),
        ("insert", (1, 2), "a"),
        ("delete", (1, 2), ("any",)),
        ("bulk", [((3, 4), None), ((5, 6), 7)]),
    ]
    #: SHA-256 of the 231 bytes ``OPS`` left in a closed log before logs
    #: reserved space.
    CLOSED_SHA256 = "7ab2356de1c5bb2104db81aacf911048b49ee37cebfee9926ddf483c9dc04dcd"

    def test_live_log_reserved_zeros_are_not_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for op in self.OPS:
            wal.append(op)
        scan = scan_wal(path)
        assert scan.file_size > wal.size  # the reservation is on disk
        assert path.read_bytes()[wal.size:].strip(b"\0") == b""
        assert [op for _, op in scan.frames] == self.OPS
        assert scan.valid_size == wal.size
        assert scan.torn_bytes == 0
        wal.close()

    def test_torn_frame_inside_the_reservation_is_counted_exactly(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(("flush",))
        torn = encode_frame(encode_op(("insert", (1, 2), "abc")))[:-2]
        assert torn[-1] != 0  # a trailing zero would read as reserved space
        with open(path, "r+b") as handle:
            handle.seek(wal.size)
            handle.write(torn)
        scan = scan_wal(path)
        assert [op for _, op in scan.frames] == [("flush",)]
        assert scan.valid_size == wal.size
        assert scan.torn_bytes == len(torn)
        assert scan.file_size > wal.size + len(torn)
        wal.close()

    def test_zero_length_header_ends_the_log(self, tmp_path):
        """A zero-length header ends the log, and only zeros may follow
        it: no append writes one, so a frame after it means the header
        was zeroed in the middle of the log."""
        path = tmp_path / "wal.log"
        first = encode_frame(encode_op(("flush",)))
        after = encode_frame(encode_op(("insert", (1, 2), "a")))
        path.write_bytes(first + bytes(FRAME_HEADER.size + len(after)))
        scan = scan_wal(path)
        assert [op for _, op in scan.frames] == [("flush",)]
        assert (scan.valid_size, scan.torn_bytes) == (len(first), 0)
        path.write_bytes(first + bytes(FRAME_HEADER.size) + after)
        with pytest.raises(CorruptWalError) as raised:
            scan_wal(path)
        assert raised.value.offset == len(first)

    def test_closed_log_is_byte_identical_to_an_unreserved_one(self, tmp_path):
        path = tmp_path / "wal.log"
        _append_ops(path, self.OPS)
        data = path.read_bytes()
        assert data == b"".join(encode_frame(encode_op(op)) for op in self.OPS)
        assert len(data) == 231
        assert hashlib.sha256(data).hexdigest() == self.CLOSED_SHA256

    def test_reopened_log_writes_at_its_end_inside_the_zeros(self, tmp_path):
        path = tmp_path / "wal.log"
        # What a crash leaves: one frame, then the rest of the reservation.
        path.write_bytes(encode_frame(encode_op(("flush",))) + bytes(100))
        scan = scan_wal(path)
        assert scan.torn_bytes == 0
        resumed = WriteAheadLog(path, end=scan.valid_size)
        resumed.append(("insert", (1, 2), "a"))
        resumed.close()
        assert [op for _, op in scan_wal(path).frames] == [
            ("flush",),
            ("insert", (1, 2), "a"),
        ]
        assert path.stat().st_size == resumed.size

    def test_new_log_replaces_a_stale_file(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"\x99" * 20 + bytes(100))
        wal = WriteAheadLog(path, end=0)
        wal.append(("flush",))
        wal.close()
        assert path.read_bytes() == encode_frame(encode_op(("flush",)))


class TestFileOps:
    def test_write_file_is_complete_and_synced(self, tmp_path):
        ops = FileOps()
        target = tmp_path / "blob.bin"
        ops.write_file(target, b"payload")
        assert target.read_bytes() == b"payload"

    def test_replace_is_atomic_commit(self, tmp_path):
        ops = FileOps()
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"new")
        b.write_bytes(b"old")
        ops.replace(a, b)
        assert b.read_bytes() == b"new"
        assert not a.exists()

    def test_unlink_tolerates_missing(self, tmp_path):
        FileOps().unlink(tmp_path / "never-existed")

    def test_preallocate_reserves_zeros_and_never_shrinks(self, tmp_path):
        ops = FileOps()
        target = tmp_path / "log"
        handle = ops.open_write(target)
        try:
            ops.write(handle, b"abc")
            ops.preallocate(handle, 64)
            assert target.read_bytes() == b"abc" + bytes(61)
            ops.preallocate(handle, 16)
            assert target.stat().st_size == 64
        finally:
            handle.close()

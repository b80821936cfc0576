"""Mid-log corruption is refused; a torn tail is recovered.

A crash tears at most the last append, so a bad frame that later
frames follow is corruption: ``recover()`` raises ``CorruptWalError``
naming the file and the frame's offset, and changes no file.  A bad
last frame — any proper prefix of it, or a CRC mismatch — is a torn
tail: recovery keeps every frame before it and truncates it.
"""

import shutil

import numpy as np
import pytest

from repro import SFCIndex, make_curve, recover
from repro.errors import CorruptWalError, RecoveryError
from repro.storage.pagefile import wal_file_name
from repro.storage.wal import FRAME_HEADER, scan_wal

SIDE = 64
INSERTS = 1000


@pytest.fixture(scope="module")
def closed_log(tmp_path_factory):
    """A closed durable onion store that took ``INSERTS`` fsynced
    single inserts, and the end offset of each frame of its log (the
    header frame first)."""
    root = tmp_path_factory.mktemp("closed") / "d"
    store = SFCIndex(make_curve("onion", SIDE, 2), page_capacity=8, durable_path=root)
    rng = np.random.default_rng(41)
    for i, (x, y) in enumerate(rng.integers(0, SIDE, size=(INSERTS, 2))):
        store.insert((int(x), int(y)), i)
    store.durability.close()
    ends = [end for end, _ in scan_wal(root / wal_file_name(0)).frames]
    assert len(ends) == INSERTS + 1
    return root, ends


def _copy(closed_log, tmp_path):
    root, ends = closed_log
    copy = tmp_path / "d"
    shutil.copytree(root, copy)
    return copy, copy / wal_file_name(0), ends


def _files(root):
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


class TestMidLogCorruption:
    @pytest.mark.parametrize("damage", ["bit flip in the body", "zeroed header"])
    def test_third_insert_damaged_is_refused_untouched(self, damage, closed_log, tmp_path):
        root, wal, ends = _copy(closed_log, tmp_path)
        start, end = ends[2], ends[3]  # the third insert's frame
        data = bytearray(wal.read_bytes())
        if damage == "zeroed header":
            data[start : start + FRAME_HEADER.size] = bytes(FRAME_HEADER.size)
        else:
            data[(start + FRAME_HEADER.size + end) // 2] ^= 0x10
        wal.write_bytes(bytes(data))
        before = _files(root)
        with pytest.raises(CorruptWalError) as raised:
            recover(root)
        assert isinstance(raised.value, RecoveryError)
        assert (raised.value.path, raised.value.offset) == (wal, start)
        assert str(start) in str(raised.value) and str(wal) in str(raised.value)
        assert _files(root) == before


class TestTornTail:
    def test_every_proper_prefix_of_the_last_frame_recovers(self, closed_log, tmp_path):
        root, wal, ends = _copy(closed_log, tmp_path)
        data = wal.read_bytes()
        start, end = ends[-2], ends[-1]
        for cut in range(start, end):
            # The file ends inside the frame, or zeros of a reservation
            # follow the part the torn append wrote.
            for torn in (data[:cut], data[:cut] + bytes(end - cut + 64)):
                wal.write_bytes(torn)
                recovered = recover(root)
                report = recovered.durability.last_recovery
                assert (report.frames_replayed, len(recovered)) == (INSERTS - 1,) * 2
                assert report.torn_bytes == len(data[start:cut].rstrip(b"\0"))
                recovered.durability.close()
                assert wal.read_bytes()[:start] == data[:start]
                assert not wal.read_bytes()[start:].strip(b"\0")  # torn bytes cut

    def test_last_frame_with_a_bad_crc_recovers_the_prefix(self, closed_log, tmp_path):
        root, wal, ends = _copy(closed_log, tmp_path)
        data = bytearray(wal.read_bytes())
        start, end = ends[-2], ends[-1]
        data[end - 2] ^= 0x01
        wal.write_bytes(bytes(data))
        recovered = recover(root)
        report = recovered.durability.last_recovery
        assert (report.frames_replayed, len(recovered)) == (INSERTS - 1,) * 2
        assert report.torn_bytes == end - start
        recovered.durability.close()
        assert wal.read_bytes() == data[:start]

"""Durable store roundtrips: WAL + checkpoint + recover() equivalence.

The crash-injection differential lives in ``test_crash_recovery.py``;
this module covers the clean-shutdown contract: a recovered store has
identical records, identical query I/O accounting, the same curve and
shard map, and keeps accepting (and persisting) writes.
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import ANY, Rect, SFCIndex, ShardedSFCIndex, make_curve, recover
from repro.curves.onion3d import OnionCurve3D
from repro.errors import InvalidQueryError, RecoveryError, StorageError
from repro.obs import start_trace
from repro.storage.durable import Durability
from repro.storage.pagefile import FORMAT, MANIFEST_NAME, load_pages, wal_file_name
from repro.storage.wal import FRAME_HEADER, WriteAheadLog, encode_op, scan_wal

from layout_oracle import Modelled

DATA = Path(__file__).resolve().parent / "data"
SIDE = 8
FULL = Rect.from_origin((0, 0), (SIDE, SIDE))
PROBES = [
    Rect.from_origin((0, 0), (SIDE, SIDE)),
    Rect.from_origin((1, 2), (4, 3)),
    Rect.from_origin((5, 0), (3, 8)),
]


def _build(kind, tmp_path, **kwargs):
    curve = make_curve("onion", SIDE, 2)
    if kind == "single":
        return SFCIndex(curve, page_capacity=4, durable_path=tmp_path / "d", **kwargs)
    return ShardedSFCIndex(
        curve, num_shards=2, page_capacity=4, durable_path=tmp_path / "d", **kwargs
    )


def _populate(store):
    """A bulk load and single writes; returns the store's
    :class:`~layout_oracle.Modelled` twin, which saw the same writes."""
    both = Modelled(store)
    pts = [(x, y) for x in range(SIDE) for y in range(0, SIDE, 2)]
    both.bulk_load(pts, list(range(len(pts))))
    both.insert((1, 1), "a")
    both.insert((1, 1), None)
    both.delete((1, 1), None)
    both.insert((3, 3), "b")
    both.delete((5, 4))
    return both


def _state(kind, **fields):
    """A durable store state as a WAL header or manifest records it."""
    state = {"kind": kind, "curve": ["onion", SIDE, 2], "page_capacity": 4}
    if kind == "sharded":
        state["shards"] = [[0, 31], [32, SIDE * SIDE - 1]]
    state.update(fields)
    return state


def _write_log(root, state, *ops):
    """A durable directory holding one WAL: a header frame recording
    ``state``, then ``ops``."""
    durability = Durability(root)
    durability.initialize(state)
    for op in ops:
        durability.log(op)
    durability.close()


def _signature(store):
    """Records plus per-probe I/O accounting, from a parked head."""
    store.flush()
    store.disk.reset_stats()
    probes = []
    for rect in PROBES:
        result = store.range_query(rect, gap_tolerance=2)
        probes.append(
            (
                [(r.point, r.payload) for r in result.records],
                result.seeks,
                result.pages_read,
                result.over_read,
            )
        )
    return len(store), store.curve, probes


@pytest.mark.parametrize("kind", ["single", "sharded"])
class TestDurableRoundtrip:
    def test_recover_equals_original(self, kind, tmp_path):
        store = _build(kind, tmp_path)
        both = _populate(store)
        recovered = recover(tmp_path / "d")
        assert type(recovered) is type(store)
        assert _signature(recovered) == _signature(store)
        both.model.assert_served(recovered)

    def test_recover_after_flush_and_checkpoint(self, kind, tmp_path):
        store = _build(kind, tmp_path)
        both = _populate(store)
        store.flush()
        manifest = store.checkpoint()
        assert manifest.generation == 1
        assert manifest.record_count == len(store)
        assert load_pages(tmp_path / "d", manifest) == both.model.page_images(
            store.curve, 4
        )
        both.insert((7, 7), "late")
        recovered = recover(tmp_path / "d")
        report = recovered.durability.last_recovery
        assert report.generation == 1
        assert report.checkpoint_records == manifest.record_count
        assert report.frames_replayed == 1  # just the post-checkpoint insert
        assert _signature(recovered) == _signature(store)
        both.model.assert_served(recovered)

    def test_first_read_merges_the_replay_into_the_checkpoint(self, kind, tmp_path):
        """The checkpoint's records are bulk loaded into an empty store,
        so their sorted columns are the base: the first read merges the
        replayed write into them, and serves what the writes before the
        checkpoint and after it, in arrival order, make."""
        store = _build(kind, tmp_path)
        both = _populate(store)
        store.checkpoint()
        both.insert((7, 7), "late")
        recovered = recover(tmp_path / "d")
        with start_trace("first read") as trace:
            recovered.range_query(FULL)
        assert [span.attrs["merged_keys"] for span in trace.find("flush")] == [1]
        both.model.assert_served(recovered)
        assert _signature(recovered) == _signature(store)

    def test_recover_after_migration(self, kind, tmp_path):
        store = _build(kind, tmp_path)
        both = _populate(store)
        report = store.migrate_to(make_curve("hilbert", SIDE, 2))
        assert report.migrated
        recovered = recover(tmp_path / "d")
        assert recovered.curve == make_curve("hilbert", SIDE, 2)
        assert _signature(recovered) == _signature(store)
        both.model.assert_served(recovered)

    def test_compact_checkpoint_rotates_the_log(self, kind, tmp_path):
        store = _build(kind, tmp_path)
        _populate(store)
        manifest = store.checkpoint(compact=True)
        root = tmp_path / "d"
        assert not (root / wal_file_name(0)).exists()
        assert (root / manifest.wal_file).exists()
        # The rotated log holds only its header; recovery replays nothing.
        recovered = recover(root)
        assert recovered.durability.last_recovery.frames_replayed == 0
        assert _signature(recovered) == _signature(store)

    def test_recovered_store_is_still_durable(self, kind, tmp_path):
        store = _build(kind, tmp_path)
        _populate(store)
        first = recover(tmp_path / "d")
        first.insert((6, 6), "again")
        first.durability.close()
        second = recover(tmp_path / "d")
        assert _signature(second) == _signature(first)
        assert "again" in [r.payload for r in second.point_query((6, 6))]

    def test_sync_false_survives_clean_recovery(self, kind, tmp_path):
        store = _build(kind, tmp_path, durable_sync=False)
        _populate(store)
        recovered = recover(tmp_path / "d")
        assert _signature(recovered) == _signature(store)

    def test_reads_log_no_flush_frames(self, kind, tmp_path):
        """A flushed layout is derived state: a read never writes the log."""
        store = _build(kind, tmp_path)
        store.insert((1, 1), "a")
        store.range_query(FULL)
        store.insert((2, 2), "b")
        store.range_query(FULL)
        frames = scan_wal(tmp_path / "d" / wal_file_name(0)).frames
        assert [op[0] for _, op in frames] == ["header", "insert", "insert"]

    def test_flush_frames_of_older_logs_replay_as_nothing(self, kind, tmp_path):
        """Logs written while flushes were still logged recover to the
        same records, and only their mutations count as replayed."""
        store = _build(kind, tmp_path)
        for i, point in enumerate([(1, 1), (2, 2), (1, 1)]):
            store.durability.log(("flush",))
            store.insert(point, i)
        store.durability.log(("flush",))
        recovered = recover(tmp_path / "d")
        assert recovered.durability.last_recovery.frames_replayed == 3
        assert _signature(recovered) == _signature(store)

    def test_torn_tail_is_truncated_and_reported(self, kind, tmp_path):
        store = _build(kind, tmp_path)
        _populate(store)
        wal_path = tmp_path / "d" / wal_file_name(0)
        # A torn append lands at the logical end, inside the live log's
        # reserved zeros.
        with open(wal_path, "r+b") as handle:
            handle.seek(store.durability.wal.size)
            handle.write(b"\x99" * 11)
        recovered = recover(tmp_path / "d")
        assert recovered.durability.last_recovery.torn_bytes == 11
        assert scan_wal(wal_path).torn_bytes == 0  # repaired on disk
        assert _signature(recovered) == _signature(store)
        # And the repaired log keeps accepting appends.
        recovered.insert((2, 6), "post-repair")
        again = recover(tmp_path / "d")
        assert "post-repair" in [r.payload for r in again.point_query((2, 6))]


    def test_a_crashed_log_resumes_at_its_last_valid_frame(self, kind, tmp_path):
        """A store that dies leaves the zeros it reserved past its last
        frame.  The recovered store appends over them, so a second
        recovery still finds what it wrote."""
        store = _build(kind, tmp_path)
        _populate(store)  # never closed: the process died here
        wal_path = tmp_path / "d" / wal_file_name(0)
        end = store.durability.wal.size
        assert wal_path.stat().st_size > end
        first = recover(tmp_path / "d")
        assert first.durability.last_recovery.torn_bytes == 0
        assert first.durability.wal.size == end
        first.insert((6, 6), "after the crash")
        second = recover(tmp_path / "d")
        assert second.durability.last_recovery.frames_replayed == 7
        assert "after the crash" in [r.payload for r in second.point_query((6, 6))]
        assert _signature(second) == _signature(first)

    def test_compact_checkpoint_replaces_a_stale_log(self, kind, tmp_path):
        """A compacting checkpoint that died before its commit leaves its
        new log behind, torn or holding reserved zeros.  The next one
        starts that log afresh instead of appending after the debris."""
        store = _build(kind, tmp_path)
        _populate(store)
        stale = tmp_path / "d" / wal_file_name(1)
        stale.write_bytes(b"\x99" * 20 + bytes(64))
        manifest = store.checkpoint(compact=True)
        assert manifest.wal_file == stale.name
        store.insert((6, 6), "after")
        recovered = recover(tmp_path / "d")
        assert recovered.durability.last_recovery.frames_replayed == 1
        assert _signature(recovered) == _signature(store)


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_shard_transparency_of_durability(kind, tmp_path):
    """Single and sharded durable stores recover to identical records
    and I/O totals for the same logical history."""
    store = _build(kind, tmp_path)
    _populate(store)
    recovered = recover(tmp_path / "d")
    reference = SFCIndex(make_curve("onion", SIDE, 2), page_capacity=4)
    _populate(reference)
    _, _, probes = _signature(recovered)
    _, _, expected = _signature(reference)
    assert probes == expected


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_a_bulk_frame_is_the_arrival_order_pair_list(kind, tmp_path):
    """A bulk load logs its points and payloads as they were given, not
    in the key order it files them in: each ``bulk`` frame's body is the
    encoding of the pair list built from the raw inputs alone, for a
    load into an empty store and for one into a non-empty store."""
    store = _build(kind, tmp_path)
    loads = [
        ([(7, 7), (0, 0), (3, 5), (0, 0), (6, 1)], ["e", 0, None, ("t", 1), 2.5]),
        (np.array([[2, 2], [7, 0], [2, 2], [1, 6]]), [b"x", "y", None, 3]),
    ]
    for points, payloads in loads:
        keys = [store.curve.index(tuple(point)) for point in points]
        assert keys != sorted(keys)
        store.bulk_load(points, payloads)
    data = (tmp_path / "d" / wal_file_name(0)).read_bytes()
    ends = [end for end, _ in scan_wal(tmp_path / "d" / wal_file_name(0)).frames]
    bodies = [data[start + FRAME_HEADER.size:end] for start, end in zip([0] + ends, ends)]
    pairs = [
        [(tuple(map(int, point)), payload) for point, payload in zip(points, payloads)]
        for points, payloads in loads
    ]
    assert bodies[1:] == [encode_op(("bulk", load)) for load in pairs]


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_recovery_loads_the_checkpoint_in_one_bulk_load_span(kind, tmp_path):
    """Recovery's load of the checkpoint is a bulk load, with its own
    span: one, holding every checkpointed record, which become the
    recovered store's columns; the single writes after it replay as
    inserts and deletes, with no span of their own."""
    store = _build(kind, tmp_path)
    _populate(store)
    store.checkpoint()
    checkpointed = len(store)
    store.insert((6, 6), "after")
    assert store.delete((1, 1), "a")
    with start_trace("recover") as trace:
        recovered = recover(tmp_path / "d")
    (span,) = trace.find("bulk_load")
    report = recovered.durability.last_recovery
    assert (report.checkpoint_records, report.frames_replayed) == (checkpointed, 2)
    assert span.attrs == {"records": checkpointed, "base": True}
    assert _signature(recovered) == _signature(store)


def test_recovers_keys_past_int64(tmp_path):
    """At side 2**32 the 2-D onion curve keys the centre past 2**63, a
    universe the vectorized kernels refuse. Recovery reloads the
    checkpoint through ``bulk_load``, which keys it with the exact
    scalar kernel, so the recovered store finds every record."""
    side = 2**32
    centre, top = 2**31 - 1, side - 1
    root = tmp_path / "d"
    store = SFCIndex(make_curve("onion", side, 2), page_capacity=2, durable_path=root)
    store.bulk_load([(0, 0), (centre, centre)], ["corner", "centre"])
    store.insert((5, 7), "inserted")
    store.checkpoint()
    store.insert((centre + 1, centre), "replayed")
    recovered = recover(root)
    report = recovered.durability.last_recovery
    assert (report.checkpoint_records, report.frames_replayed) == (3, 1)
    universe = Rect((0, 0), (top, top))
    around = Rect((centre - 1, centre - 1), (centre + 1, centre + 1))
    for rect, found in [(universe, 4), (around, 2)]:
        records = sorted((r.point, r.payload) for r in store.range_query(rect).records)
        assert len(records) == found
        again = recovered.range_query(rect).records
        assert sorted((r.point, r.payload) for r in again) == records


class TestSharded:
    def test_rebalance_is_replayed(self, tmp_path):
        store = _build("sharded", tmp_path)
        _populate(store)
        store.rebalance(3)
        recovered = recover(tmp_path / "d")
        assert recovered.num_shards == 3
        assert recovered.shards == store.shards
        assert recovered.shard_loads == store.shard_loads

    @pytest.mark.parametrize("target", [0, -1])
    def test_refused_rebalance_leaves_a_recoverable_log(self, tmp_path, target):
        """Regression: a rebalance refused for a bad shard count used to
        reach the WAL before the refusal, so ``recover()`` replayed it,
        raised the same error and recovered none of the acknowledged
        operations around it."""
        store = ShardedSFCIndex(
            make_curve("onion", SIDE, 2),
            num_shards=3,
            page_capacity=4,
            durable_path=tmp_path / "d",
        )
        _populate(store)
        with pytest.raises(InvalidQueryError):
            store.rebalance(target)
        store.insert((6, 6), "after")
        recovered = recover(tmp_path / "d")
        assert recovered.shards == store.shards
        assert _signature(recovered) == _signature(store)

    def test_checkpoint_persists_the_shard_map(self, tmp_path):
        store = _build("sharded", tmp_path)
        _populate(store)
        store.rebalance(5)
        store.checkpoint(compact=True)
        recovered = recover(tmp_path / "d")
        assert recovered.num_shards == 5
        assert recovered.shards == store.shards


@pytest.mark.parametrize("kind", ["single", "sharded"])
def test_header_recording_a_tree_order_recovers(kind, tmp_path):
    """Older durable directories record a B+-tree order in their state;
    recovery ignores the field."""
    _write_log(
        tmp_path / "d",
        _state(kind, tree_order=32),
        ("insert", (1, 1), "a"),
        ("insert", (6, 2), "b"),
    )
    recovered = recover(tmp_path / "d")
    assert len(recovered) == 2
    assert [r.payload for r in recovered.point_query((6, 2))] == ["b"]


class TestFormat:
    def test_header_and_manifest_record_the_format(self, tmp_path):
        store = _build("single", tmp_path)
        _populate(store)
        manifest = store.checkpoint(compact=True)
        root = tmp_path / "d"
        header = scan_wal(root / manifest.wal_file).frames[0][1]
        assert header == ("header", _state("single"), FORMAT)
        assert json.loads((root / MANIFEST_NAME).read_bytes())["format"] == FORMAT

    def test_unknown_manifest_format_is_refused_before_any_truncation(self, tmp_path):
        store = _build("single", tmp_path)
        _populate(store)
        store.checkpoint()
        root = tmp_path / "d"
        wal_path = root / wal_file_name(0)
        with open(wal_path, "r+b") as handle:  # a torn tail recovery would cut
            handle.seek(store.durability.wal.size)
            handle.write(b"\x99" * 11)
        payload = json.loads((root / MANIFEST_NAME).read_bytes())
        payload["format"] = FORMAT + 1
        (root / MANIFEST_NAME).write_text(json.dumps(payload))
        before = wal_path.read_bytes()
        with pytest.raises(RecoveryError, match="format 2"):
            recover(root)
        assert wal_path.read_bytes() == before

    def test_unknown_header_format_is_refused_before_any_truncation(self, tmp_path):
        root = tmp_path / "d"
        root.mkdir()
        wal_path = root / wal_file_name(0)
        wal = WriteAheadLog(wal_path)
        wal.append(("header", _state("single"), FORMAT + 1))
        wal.append(("insert", (1, 1), "a"))
        wal.close()
        with open(wal_path, "ab") as handle:
            handle.write(b"\x99" * 11)
        before = wal_path.read_bytes()
        with pytest.raises(RecoveryError, match="format 2"):
            recover(root)
        assert wal_path.read_bytes() == before

    def test_a_directory_without_format_fields_recovers(self, tmp_path):
        """``data/unversioned_store`` was written before the manifest and
        the WAL header recorded a format: its manifest is indented and has
        no ``format``, and its header frame has two elements.  Such a
        directory is format 1, and it recovers to the records of the
        history that wrote it (replayed here on a fresh store)."""
        root = tmp_path / "d"
        shutil.copytree(DATA / "unversioned_store", root)
        assert "format" not in json.loads((root / MANIFEST_NAME).read_bytes())
        assert len(scan_wal(root / wal_file_name(0)).frames[0][1]) == 2
        recovered = recover(root)
        report = recovered.durability.last_recovery
        assert (report.generation, report.frames_replayed, report.torn_bytes) == (1, 3, 0)
        expected = SFCIndex(make_curve("onion", SIDE, 2), page_capacity=4)
        points = [(x, y) for x in range(SIDE) for y in range(0, SIDE, 2)]
        expected.bulk_load(points, list(range(len(points))))
        expected.insert((1, 1), "a")
        expected.delete((5, 4))
        # The directory's checkpoint was cut here.
        expected.insert((3, 3), "b")
        expected.insert((1, 1), None)
        expected.delete((1, 1), "a")
        assert _signature(recovered) == _signature(expected)


class TestRefusals:
    def test_recover_empty_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(tmp_path)

    def test_initialize_refuses_existing_store(self, tmp_path):
        _build("single", tmp_path)
        with pytest.raises(StorageError, match="already holds"):
            _build("single", tmp_path)

    def test_checkpoint_without_durability_raises(self):
        store = SFCIndex(make_curve("onion", SIDE, 2))
        with pytest.raises(StorageError, match="durable"):
            store.checkpoint()

    def test_unregistered_curve_config_is_refused_up_front(self, tmp_path):
        # A 3-d onion with a non-default face order cannot be rebuilt
        # from its (name, side, dim) spec; durable stores refuse it at
        # construction instead of silently recovering a different curve.
        curve = OnionCurve3D(4, face_order=(2, 1, 3, 4, 5, 6, 7, 8, 9, 10))
        with pytest.raises(StorageError, match="reconstructible"):
            SFCIndex(curve, durable_path=tmp_path / "d")

    def test_migrating_durable_store_to_unregistered_curve_is_refused(
        self, tmp_path
    ):
        # Same universe as the store (so the migrator accepts it) but a
        # type the registry cannot rebuild from (name, side, dim).
        class OffBrandHilbert(type(make_curve("hilbert", SIDE, 2))):
            pass

        store = _build("single", tmp_path)
        _populate(store)
        before = store.curve
        with pytest.raises(StorageError, match="reconstructible"):
            store.migrate_to(OffBrandHilbert(SIDE, 2))
        assert store.curve == before
        # The refused cutover logged nothing: recovery still works.
        assert len(recover(tmp_path / "d")) == len(store)

    def test_shard_map_not_tiling_the_key_space_is_refused(self, tmp_path):
        _write_log(tmp_path / "d", _state("sharded", shards=[[0, 30], [32, 63]]))
        with pytest.raises(RecoveryError, match="contiguous"):
            recover(tmp_path / "d")

    def test_page_capacity_below_one_is_refused(self, tmp_path):
        _write_log(tmp_path / "d", _state("single", page_capacity=0))
        with pytest.raises(RecoveryError, match="page_capacity"):
            recover(tmp_path / "d")

    def test_refusal_leaves_the_wal_untouched(self, tmp_path):
        """Regression: a checkpoint whose offset lies past the readable
        prefix of the WAL used to truncate the log to that prefix before
        refusing, which deleted the acknowledged writes after the
        checkpoint along with the corrupt frame."""
        store = _build("single", tmp_path)
        _populate(store)
        manifest = store.checkpoint()
        for x in range(3):
            store.insert((x, 1), "after")
        store.durability.close()
        wal_path = tmp_path / "d" / manifest.wal_file
        # Flip the last byte of the bulk-load frame, which the
        # checkpoint covers: its CRC no longer matches.
        end, op = scan_wal(wal_path).frames[1]
        assert op[0] == "bulk" and end <= manifest.wal_offset
        corrupt = bytearray(wal_path.read_bytes())
        corrupt[end - 1] ^= 0xFF
        wal_path.write_bytes(bytes(corrupt))
        with pytest.raises(RecoveryError, match="readable"):
            recover(tmp_path / "d")
        assert wal_path.read_bytes() == corrupt

    def test_missing_wal_named_by_manifest_raises(self, tmp_path):
        store = _build("single", tmp_path)
        _populate(store)
        manifest = store.checkpoint(compact=True)
        (tmp_path / "d" / manifest.wal_file).unlink()
        with pytest.raises(RecoveryError, match="missing WAL"):
            recover(tmp_path / "d")

    def test_delete_payload_none_is_distinct_from_any(self, tmp_path):
        # The WAL encodes the ANY sentinel as a marker, not a pickled
        # singleton: matcher semantics survive recovery.
        store = _build("single", tmp_path)
        store.insert((1, 1), None)
        store.insert((1, 1), "x")
        store.delete((1, 1), None)
        store.insert((2, 2), None)
        store.insert((2, 2), "y")
        store.delete((2, 2), ANY)
        recovered = recover(tmp_path / "d")
        assert [r.payload for r in recovered.point_query((1, 1))] == ["x"]
        assert [r.payload for r in recovered.point_query((2, 2))] == ["y"]

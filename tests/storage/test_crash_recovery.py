"""The crash-injection differential: every kill point recovers cleanly.

For a fixed logical workload (bulk load, inserts, payload-sensitive
deletes, flush, checkpoints — compacting and not — a migration cutover
and, sharded, a rebalance), a dry run counts every mutating filesystem
call the durability tier makes.  The sweep then re-runs the workload
once per boundary with a :class:`~repro.storage.crash.CrashInjector`
killing the store at exactly that call — mid-WAL-append, mid-fsync,
at the manifest rename, during post-commit unlinks — in both failure
models (``torn``: process death, partial write survives; ``lost``:
power loss, unsynced bytes roll back too).

The invariant proven for every kill point — *recovery equals a
committed prefix* — is that ``recover()`` yields a store equal to the
pre-crash store after its first ``p`` operations, where ``p`` is
either the number of fully acknowledged operations or that plus the
one in flight (durable on the log but not yet acknowledged).  Equality
means records *and* I/O accounting: the probe queries' records, seeks,
pages read and over-read must match — never a torn hybrid.

Recovery must also leave a store that keeps working: every recovered
store then logs an insert, takes a compacting checkpoint, logs another
insert, closes and recovers again, and that second recovery must equal
a fresh store after the matched prefix plus those steps.
"""

import pytest

from repro import ANY, Rect, SFCIndex, ShardedSFCIndex, make_curve, recover
from repro.errors import RecoveryError
from repro.storage.crash import CrashInjector, InjectedCrash
from repro.storage.wal import WriteAheadLog, scan_wal

SIDE = 8
CURVE = ("onion", SIDE, 2)
PROBES = [
    Rect.from_origin((0, 0), (SIDE, SIDE)),
    Rect.from_origin((1, 2), (4, 3)),
    Rect.from_origin((5, 0), (3, 8)),
]

#: The logical workload. Each entry is one store-level operation and
#: (at most) one WAL frame, so "committed prefix" is well defined at
#: this granularity.
def _script(kind):
    points = [(x, y) for x in range(SIDE) for y in range(0, SIDE, 2)]
    ops = [
        ("bulk", points, list(range(len(points)))),
        ("insert", (1, 1), "a"),
        ("insert", (1, 1), None),
        ("delete", (1, 1), "eq", None),  # payload-None targeted via the fix
        ("flush",),
        ("checkpoint", False),
        ("insert", (3, 3), "b"),
        ("migrate", "hilbert"),
        ("delete", (3, 3), "any"),
        ("checkpoint", True),
        ("insert", (5, 5), "c"),
    ]
    if kind == "sharded":
        ops.insert(7, ("rebalance", 3))
    return ops


#: What every recovered store does after its matched prefix: log, rotate
#: the log in a compacting checkpoint, and log into the new one.
AFTER_RECOVERY = [
    ("insert", (2, 6), "after-1"),
    ("checkpoint", True),
    ("insert", (6, 2), "after-2"),
]


def _build(kind, root, injector=None):
    curve = make_curve(*CURVE)
    if kind == "single":
        return SFCIndex(
            curve, page_capacity=4, durable_path=root, durable_ops=injector
        )
    return ShardedSFCIndex(
        curve,
        num_shards=2,
        page_capacity=4,
        durable_path=root,
        durable_ops=injector,
    )


def _apply_op(store, op):
    kind = op[0]
    if kind == "bulk":
        store.bulk_load(op[1], op[2])
    elif kind == "insert":
        store.insert(op[1], op[2])
    elif kind == "delete":
        store.delete(op[1], ANY if op[2] == "any" else op[3])
    elif kind == "flush":
        store.flush()
    elif kind == "checkpoint":
        if store.durability is not None:
            store.checkpoint(compact=op[1])
    elif kind == "migrate":
        store.migrate_to(make_curve(op[1], SIDE, 2))
    elif kind == "rebalance":
        store.rebalance(op[1])
    else:  # pragma: no cover - script typo guard
        raise AssertionError(f"unknown script op {op!r}")


def _reference(kind, prefix, after=()):
    """A fresh non-durable store after the first ``prefix`` script ops,
    then the ops ``after``."""
    curve = make_curve(*CURVE)
    if kind == "single":
        store = SFCIndex(curve, page_capacity=4)
    else:
        store = ShardedSFCIndex(curve, num_shards=2, page_capacity=4)
    for op in _script(kind)[:prefix] + list(after):
        _apply_op(store, op)
    return store


def _signature(store):
    """Everything "equal" means: contents, topology and I/O accounting."""
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
    shape = (
        (store.num_shards, store.shards)
        if isinstance(store, ShardedSFCIndex)
        else None
    )
    return len(store), store.curve, shape, probes


def _recover_again(recovered, root):
    """Take :data:`AFTER_RECOVERY` on a recovered store, close it and
    return the signature of a second recovery."""
    for op in AFTER_RECOVERY:
        _apply_op(recovered, op)
    recovered.durability.close()
    again = recover(root)
    try:
        return _signature(again)
    finally:
        again.durability.close()


def _boundaries(kind, tmp_path):
    """Dry run: injector call count after construction and each op."""
    injector = CrashInjector()
    store = _build(kind, tmp_path / "dry", injector)
    counts = [injector.calls]
    for op in _script(kind):
        _apply_op(store, op)
        counts.append(injector.calls)
    return counts


def _crash_run(kind, root, budget, mode):
    """Run the workload dying at file op ``budget``; return ops acked."""
    injector = CrashInjector(fail_after=budget, mode=mode)
    acked = -1  # constructor not yet done
    try:
        store = _build(kind, root, injector)
        acked = 0
        for op in _script(kind):
            _apply_op(store, op)
            acked += 1
    except InjectedCrash:
        return acked, True
    return acked, False


@pytest.mark.parametrize("kind", ["single", "sharded"])
@pytest.mark.parametrize("mode", ["torn", "lost"])
def test_every_kill_point_recovers_to_a_committed_prefix(kind, mode, tmp_path):
    counts = _boundaries(kind, tmp_path)
    total = counts[-1]
    assert 0 < total < 250, "workload size sanity check"
    script_len = len(_script(kind))
    references = {}

    def reference_signature(prefix, after=()):
        if (prefix, after) not in references:
            references[prefix, after] = _signature(_reference(kind, prefix, after))
        return references[prefix, after]

    def continues(recovered, root, matched):
        """The recovered store keeps logging, checkpoints and recovers
        again to a matched prefix plus the steps it took."""
        again = _recover_again(recovered, root)
        after = tuple(AFTER_RECOVERY)
        return any(again == reference_signature(p, after) for p in matched)

    failures = []
    for budget in range(1, total + 1):
        root = tmp_path / f"{mode}-{budget}"
        acked, crashed = _crash_run(kind, root, budget, mode)
        assert crashed, f"budget {budget} of {total} did not crash"
        if acked < 0:
            # Died inside the constructor: nothing was ever acknowledged,
            # so either recovery refuses (no readable header) or it
            # yields the empty store.
            try:
                recovered = recover(root)
            except RecoveryError:
                continue
            if _signature(recovered) != reference_signature(0):
                failures.append((budget, acked, "constructor"))
            elif not continues(recovered, root, [0]):
                failures.append((budget, acked, "constructor, recovered again"))
            continue
        recovered = recover(root)
        got = _signature(recovered)
        candidates = {acked, min(acked + 1, script_len)}
        matched = [p for p in sorted(candidates) if got == reference_signature(p)]
        if not matched:
            failures.append((budget, acked, "prefix mismatch"))
        elif not continues(recovered, root, matched):
            failures.append((budget, acked, "mismatch after recovering again"))
    assert not failures, f"kill points violating the invariant: {failures}"


@pytest.mark.parametrize("kind", ["single", "sharded"])
@pytest.mark.parametrize("mode", ["torn", "lost"])
def test_crash_during_migrate_cutover(kind, mode, tmp_path):
    """The acceptance-criteria case called out by name: a kill at any
    boundary inside ``migrate_to`` recovers to wholly-old-curve or
    wholly-new-curve — never a half-migrated store."""
    counts = _boundaries(kind, tmp_path)
    script = _script(kind)
    migrate_index = next(i for i, op in enumerate(script) if op[0] == "migrate")
    before, after = counts[migrate_index], counts[migrate_index + 1]
    assert after > before, "migration must hit the WAL"
    old_curve = _reference(kind, migrate_index).curve
    new_curve = make_curve("hilbert", SIDE, 2)
    for budget in range(before + 1, after + 1):
        root = tmp_path / f"mig-{mode}-{budget}"
        acked, crashed = _crash_run(kind, root, budget, mode)
        assert crashed and acked == migrate_index
        recovered = recover(root)
        got = _signature(recovered)
        assert recovered.curve in (old_curve, new_curve)
        sig_old = _signature(_reference(kind, migrate_index))
        sig_new = _signature(_reference(kind, migrate_index + 1))
        assert got == sig_old or got == sig_new


def test_lost_mode_drops_an_unsynced_frame_inside_the_reservation(tmp_path):
    """Power loss keeps the fsynced reservation but not a frame written
    into it since: the file rolls back to its last fsynced logical end,
    and the frame's bytes read as zeros again."""
    path = tmp_path / "wal.log"
    injector = CrashInjector(fail_after=0, mode="lost")  # counts, never dies
    wal = WriteAheadLog(path, ops=injector, sync=False)
    wal.append(("flush",))
    wal.sync()  # the frame and the reservation are durable
    synced_size = path.stat().st_size
    wal.append(("insert", (1, 1), "a"))  # written into the reservation, unsynced
    injector.fail_after = injector.calls + 1
    with pytest.raises(InjectedCrash):
        wal.sync()
    scan = scan_wal(path)
    assert [op for _, op in scan.frames] == [("flush",)]
    assert (scan.torn_bytes, scan.file_size) == (0, synced_size)
    injector.fail_after = 0
    wal.close()


def test_injector_modes_are_validated():
    with pytest.raises(ValueError):
        CrashInjector(mode="flaky")


def test_injected_crash_is_not_a_library_error(tmp_path):
    """Library ``except Exception`` handlers must not swallow a death."""
    assert not issubclass(InjectedCrash, Exception)

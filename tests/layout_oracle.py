"""The layout a flush must serve, whichever path built it.

Merge-on-flush and a bulk load's sorted columns both stand in for a
walk of the store's tree; :func:`assert_serves_the_walk` is the oracle
the merge-flush, bulk-load and durability suites hold them to.
"""

from repro.api import pack_layout
from repro.storage.disk import SimulatedDisk


def assert_serves_the_walk(store):
    """The served layout equals a layout packed from a walk of the tree."""
    layout = store.page_layout
    with store._mutex:
        walked = pack_layout(SimulatedDisk(), layout.capacity, store._flush_entries())
    assert layout.keys.dtype == walked.keys.dtype
    assert layout.keys.tolist() == walked.keys.tolist()
    assert len(layout.records) == len(walked.records)
    assert all(ours is theirs for ours, theirs in zip(layout.records, walked.records))
    assert [len(page) for page in layout.pages] == [len(page) for page in walked.pages]

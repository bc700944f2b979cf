"""Property tests for the packed binary spill buffer.

Two invariants carry the binary collector's byte-identity claim:

* the struct-packed kvindex is lossless — pack/unpack round-trips every
  entry, and a buffered record reads back exactly as appended;
* the spill sort produces exactly the order of a stable sort by
  ``(partition, key bytes)`` — including insertion-order stability for
  equal keys — and never inverts byte order, and the spill's grouping
  equals that stable sort followed by grouping equal keys.

Hypothesis drives both over adversarial keys: empty, sharing long
prefixes, differing only past 8 bytes, trailing NULs, and arbitrary
non-ASCII bytes.
"""

from __future__ import annotations

from itertools import groupby

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.binarybuffer import (
    KVINDEX_ENTRY_BYTES,
    BinarySpillBuffer,
    pack_kvindex_entry,
    unpack_kvindex_entry,
)

# Keys that stress a byte-order sort: empty, shared prefixes longer than
# 8 bytes, trailing NULs, and raw non-ASCII bytes.
tricky_keys = st.one_of(
    st.binary(min_size=0, max_size=12),
    st.binary(min_size=0, max_size=3).map(lambda suffix: b"sameprefix" + suffix),
    st.binary(min_size=0, max_size=2).map(lambda head: head + b"\x00\x00"),
    st.sampled_from([b"", b"\x00", b"a", b"a\x00", b"a\x00\x00", "épée".encode()]),
)

records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # partition
        tricky_keys,
        st.binary(min_size=0, max_size=6),  # value
    ),
    min_size=0,
    max_size=60,
)

uint32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(st.tuples(uint32, uint32, uint32, uint32, uint32), max_size=20))
def test_kvindex_pack_unpack_round_trip(entries):
    packed = b"".join(pack_kvindex_entry(*entry) for entry in entries)
    assert len(packed) == KVINDEX_ENTRY_BYTES * len(entries)
    for seq, entry in enumerate(entries):
        assert unpack_kvindex_entry(packed, seq) == entry


@settings(max_examples=150, deadline=None)
@given(recs=records)
def test_buffered_records_read_back_exactly(recs):
    buffer = BinarySpillBuffer(1 << 20)
    for partition, key, value in recs:
        buffer.append(partition, key, value)
    spill = buffer.drain()
    assert spill.record_count == len(recs)
    assert [spill.entry(seq) for seq in range(len(recs))] == recs
    assert list(spill) == recs


#: Equal keys, keys equal on their first 8 bytes, and trailing NULs,
#: across partitions: both sort modes must see these.
_TIES = [
    (1, b"sameprefix\x01", b"1"), (0, b"a\x00", b"2"), (1, b"sameprefix", b"3"),
    (0, b"a", b"4"), (1, b"sameprefix\x01", b"5"), (0, b"", b"6"), (0, b"a\x00", b"7"),
]


def drained(recs):
    buffer = BinarySpillBuffer(1 << 20)
    for partition, key, value in recs:
        buffer.append(partition, key, value)
    return buffer.drain()


@settings(max_examples=150, deadline=None)
@given(recs=records, exact=st.booleans())
@example(recs=_TIES, exact=False)
@example(recs=_TIES, exact=True)
def test_bucket_sort_matches_stable_sorted(recs, exact):
    """The spill sort equals a stable sort by (partition, key) —
    positionally, so equal keys keep arrival order — and never puts a
    strictly greater key before a smaller one."""
    spill = drained(recs)
    order, stats = spill.sort(exact_comparisons=exact)

    reference = sorted(
        range(len(recs)), key=lambda seq: (recs[seq][0], recs[seq][1])
    )
    assert order == reference
    assert stats.records == len(recs)
    ordered = [recs[seq][:2] for seq in order]
    assert all(a <= b for a, b in zip(ordered, ordered[1:]))


@settings(max_examples=150, deadline=None)
@given(recs=records)
def test_groups_match_stable_sort_then_grouping(recs):
    """Per-partition groups equal a stable sort by (partition, key)
    followed by grouping equal keys, values in arrival order."""
    spill = drained(recs)
    order, _ = spill.sort()
    expected = [[] for _ in range(4)]
    stable = sorted(recs, key=lambda rec: (rec[0], rec[1]))
    for (partition, key), group in groupby(stable, key=lambda rec: (rec[0], rec[1])):
        expected[partition].append((key, [value for _, _, value in group]))
    assert spill.groups(order, 4) == expected

"""Parity of the map-output byte path's fast paths with plain references.

The vint codec, the record framing and the k-way merge each take a bulk
or table-driven shortcut.  Each is checked here against a reference
written the plain way — per-byte LEB128, per-record framing, a heap
merge — for identical bytes, records, order, errors and work counts.
"""

from __future__ import annotations

import heapq
from math import log2

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SerdeError
from repro.io.merger import MergeStats, merge_and_combine, merge_runs
from repro.io.records import decode_records, encode_records
from repro.serde.numeric import VIntWritable, decode_vint, encode_vint


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def ref_encode_vint(value: int) -> bytes:
    zigzag = ((value << 1) ^ (value >> 63)) & ((1 << 64) - 1)
    out = bytearray()
    while True:
        byte = zigzag & 0x7F
        zigzag >>= 7
        if zigzag:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def ref_decode_vint(data: bytes, pos: int = 0) -> tuple[int, int]:
    result = shift = 0
    while True:
        if pos >= len(data):
            raise SerdeError("truncated vint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return (result >> 1) ^ -(result & 1), pos
        shift += 7
        if shift > 63:
            raise SerdeError("vint too long")


def ref_encode_records(records) -> bytes:
    out = bytearray()
    for key, value in records:
        out += ref_encode_vint(len(key)) + key + ref_encode_vint(len(value)) + value
    return bytes(out)


def ref_decode_records(data: bytes, offset: int = 0, end: int | None = None):
    pos = offset
    stop = len(data) if end is None else end
    while pos < stop:
        key_len, pos = ref_decode_vint(data, pos)
        if key_len < 0 or pos + key_len > stop:
            raise SerdeError(f"corrupt record frame at offset {pos}: key length {key_len}")
        key = data[pos : pos + key_len]
        pos += key_len
        value_len, pos = ref_decode_vint(data, pos)
        if value_len < 0 or pos + value_len > stop:
            raise SerdeError(f"corrupt record frame at offset {pos}: value length {value_len}")
        value = data[pos : pos + value_len]
        pos += value_len
        yield key, value


def ref_merge_runs(runs, stats: MergeStats):
    """The heap k-way merge: pop the least (key, stream) head."""
    live = [iter(run) for run in runs]
    stats.streams = len(live)
    heap = []
    for stream_id, stream in enumerate(live):
        for key, value in stream:
            heap.append((key, stream_id, value, stream))
            break
    heapq.heapify(heap)
    cost = 0 if len(live) == 1 else int(max(1.0, 2.0 * log2(max(2, len(heap)))))
    while heap:
        key, stream_id, value, stream = heapq.heappop(heap)
        stats.records_in += 1
        stats.records_out += 1
        stats.bytes_in += len(key) + len(value)
        stats.bytes_out += len(key) + len(value)
        stats.comparisons += cost
        yield key, value
        for next_key, next_value in stream:
            heapq.heappush(heap, (next_key, stream_id, next_value, stream))
            break


def outcome(fn, *args):
    """``("ok", result)`` or ``("error", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("error", type(exc), str(exc))


# ----------------------------------------------------------------------
# vint
# ----------------------------------------------------------------------
int64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
BOUNDARIES = [0, 1, -1, 63, 64, -64, -65, 127, 128, -128, -129, 2**63 - 1, -(2**63)]


@settings(max_examples=300, deadline=None)
@given(value=int64)
@example(value=63)
@example(value=64)
@example(value=127)
@example(value=128)
@example(value=-64)
@example(value=-65)
def test_vint_matches_reference(value):
    encoded = ref_encode_vint(value)
    assert encode_vint(value) == encoded
    assert VIntWritable(value).to_bytes() == encoded
    assert decode_vint(encoded) == (value, len(encoded))
    assert decode_vint(b"\x07" + encoded, 1) == (value, len(encoded) + 1)


@pytest.mark.parametrize("value", BOUNDARIES)
def test_vint_boundaries(value):
    encoded = ref_encode_vint(value)
    assert encode_vint(value) == encoded
    assert VIntWritable.from_bytes(encoded).value == value


def test_vint_rejects_bool_and_accepts_int_subclass():
    class Count(int):
        pass

    for flag in (True, False):
        with pytest.raises(SerdeError, match="vint encodes int, got bool"):
            encode_vint(flag)
    for value in (3, 100, -70):
        assert encode_vint(Count(value)) == ref_encode_vint(value)
        assert VIntWritable(Count(value)).to_bytes() == ref_encode_vint(value)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=12), offset=st.integers(min_value=0, max_value=13))
def test_vint_decode_errors_match_reference(data, offset):
    assert outcome(decode_vint, data, offset) == outcome(ref_decode_vint, data, offset)


# ----------------------------------------------------------------------
# record framing
# ----------------------------------------------------------------------
def test_framing_round_trips_every_small_length():
    for length in range(201):
        records = [(b"k" * length, b"v"), (b"", b"x" * length), (b"\x01" * length, b"\xff" * length)]
        data = encode_records(records)
        assert data == ref_encode_records(records)
        assert list(decode_records(data)) == records


def test_encode_records_accepts_any_iterable():
    records = [(b"a", b"1"), (b"b" * 70, b"2")]
    assert encode_records(iter(records)) == ref_encode_records(records)
    assert encode_records(()) == b""


def test_truncation_errors_match_reference():
    stream = ref_encode_records(
        [(b"key", b"v"), (b"k" * 70, b""), (b"", b"w" * 130), (b"z", b"x" * 64)]
    )
    for cut in range(len(stream) + 1):
        data = stream[:cut]
        decode = lambda: list(decode_records(data))  # noqa: E731
        reference = lambda: list(ref_decode_records(data))  # noqa: E731
        assert outcome(decode) == outcome(reference), cut


@pytest.mark.parametrize("odd", [1, 3, 0x7F])
def test_odd_one_byte_length_is_negative_length_error(odd):
    for data in (bytes([odd]) + b"abc", b"\x02k" + bytes([odd]) + b"abc"):
        with pytest.raises(SerdeError) as got:
            list(decode_records(data))
        with pytest.raises(SerdeError) as want:
            list(ref_decode_records(data))
        assert str(got.value) == str(want.value)
        assert "length -" in str(got.value)


@settings(max_examples=300, deadline=None)
@given(
    records=st.lists(st.tuples(st.binary(max_size=80), st.binary(max_size=80)), max_size=6),
    offset=st.integers(min_value=0, max_value=40),
    end=st.one_of(st.none(), st.integers(min_value=0, max_value=400)),
    noise=st.binary(max_size=6),
)
def test_offset_end_windows_match_reference(records, offset, end, noise):
    data = ref_encode_records(records) + noise
    decode = lambda: list(decode_records(data, offset, end))  # noqa: E731
    reference = lambda: list(ref_decode_records(data, offset, end))  # noqa: E731
    assert outcome(decode) == outcome(reference)


# ----------------------------------------------------------------------
# merge
# ----------------------------------------------------------------------
sorted_runs = st.lists(
    st.lists(
        st.tuples(st.sampled_from([b"", b"a", b"a\x00", b"ab", b"b", b"\xff"]), st.binary(max_size=3)),
        max_size=8,
    ).map(lambda run: sorted(run, key=lambda record: record[0])),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(runs=sorted_runs)
@example(runs=[])
@example(runs=[[(b"k", b"1"), (b"k", b"2")]])
@example(runs=[[], [(b"k", b"1")], []])
@example(runs=[[(b"k", b"a1"), (b"k", b"a2")], [(b"j", b"b0"), (b"k", b"b1")], [(b"k", b"c1")]])
def test_merge_matches_heap_reference(runs):
    stats, ref_stats = MergeStats(), MergeStats()
    merged = list(merge_runs([list(run) for run in runs], stats))
    assert merged == list(ref_merge_runs([iter(run) for run in runs], ref_stats))
    assert stats == ref_stats


@settings(max_examples=150, deadline=None)
@given(runs=sorted_runs)
def test_merge_and_combine_matches_heap_reference(runs):
    def combine(key, values):
        return [(key, b"".join(values))]

    stats = MergeStats()
    out = list(merge_and_combine([iter(run) for run in runs], combine, stats))

    ref_stats = MergeStats()
    merged = list(ref_merge_runs(runs, ref_stats))
    expected = []
    for key, value in merged:
        if expected and expected[-1][0] == key:
            expected[-1] = (key, expected[-1][1] + value)
        else:
            expected.append((key, value))
    ref_stats.records_out = len(expected)
    ref_stats.bytes_out = sum(len(k) + len(v) for k, v in expected)
    assert out == expected
    assert stats == ref_stats

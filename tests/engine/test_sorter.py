"""Tests for spill sorting and the per-partition grouping."""

import pytest

from repro.engine.binarybuffer import BinarySpill, BinarySpillBuffer
from repro.engine.sorter import sort_spill


def spill_of(*records: tuple[int, bytes, bytes]) -> BinarySpill:
    buffer = BinarySpillBuffer(1 << 20)
    for partition, key, value in records:
        buffer.append(partition, key, value)
    return buffer.drain()


def record(partition: int, key: bytes, value: bytes = b"v") -> tuple[int, bytes, bytes]:
    return (partition, key, value)


def ordered_entries(spill: BinarySpill, order: list[int]) -> list[tuple[int, bytes, bytes]]:
    return [spill.entry(seq) for seq in order]


class TestSortSpill:
    def test_orders_by_partition_then_key(self):
        spill = spill_of(record(1, b"a"), record(0, b"z"), record(0, b"a"), record(1, b"b"))
        order, _ = sort_spill(spill)
        assert [(p, k) for p, k, _ in ordered_entries(spill, order)] == [
            (0, b"a"), (0, b"z"), (1, b"a"), (1, b"b"),
        ]

    def test_stable_for_equal_keys(self):
        spill = spill_of(record(0, b"k", b"first"), record(0, b"k", b"second"))
        order, _ = sort_spill(spill)
        assert [v for _, _, v in ordered_entries(spill, order)] == [b"first", b"second"]

    def test_model_comparison_count(self):
        spill = spill_of(*(record(0, bytes([i % 7])) for i in range(64)))
        _, stats = sort_spill(spill, exact_comparisons=False)
        assert stats.comparisons == 64 * 6  # n log2 n

    def test_exact_comparison_count(self):
        spill = spill_of(*(record(0, bytes([i % 7])) for i in range(64)))
        order_model, _ = sort_spill(spill, exact_comparisons=False)
        order_exact, stats = sort_spill(spill, exact_comparisons=True)
        assert order_exact == order_model
        assert 63 <= stats.comparisons <= 64 * 8

    def test_trivial_inputs(self):
        order, stats = sort_spill(spill_of())
        assert order == [] and stats.comparisons == 0
        order, stats = sort_spill(spill_of(record(0, b"k")))
        assert order == [0] and stats.comparisons == 0

    def test_bytes_moved(self):
        spill = spill_of(record(0, b"ab", b"cd"), record(0, b"e", b"f"))
        _, stats = sort_spill(spill)
        assert stats.bytes_moved == 6


class TestCutPartitions:
    """Cutting a sorted spill into per-partition ``(key, [values])`` groups."""

    def test_slices_per_partition(self):
        spill = spill_of(record(0, b"a"), record(0, b"b"), record(2, b"c"))
        order, _ = sort_spill(spill)
        partitions = spill.groups(order, 3)
        assert [len(p) for p in partitions] == [2, 0, 1]
        assert partitions[2] == [(b"c", [b"v"])]

    def test_preserves_sort_within_partition(self):
        spill = spill_of(record(1, b"z"), record(1, b"a"), record(1, b"m"))
        order, _ = sort_spill(spill)
        partitions = spill.groups(order, 2)
        assert [k for k, _ in partitions[1]] == [b"a", b"m", b"z"]

    def test_groups_equal_keys_in_arrival_order(self):
        spill = spill_of(
            record(1, b"k", b"1"), record(0, b"k", b"2"), record(1, b"k", b"3"),
            record(1, b"j", b"4"),
        )
        order, _ = sort_spill(spill)
        assert spill.groups(order, 2) == [
            [(b"k", [b"2"])],
            [(b"j", [b"4"]), (b"k", [b"1", b"3"])],
        ]

    def test_partition_out_of_range_is_an_error(self):
        spill = spill_of(record(0, b"a"), record(3, b"b"))
        order, _ = sort_spill(spill)
        with pytest.raises(IndexError, match="partition 3 out of range for 2 partitions"):
            spill.groups(order, 2)

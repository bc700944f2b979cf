"""K-way merge of sorted record runs, with optional combining.

Both merge sites of the MapReduce pipeline use this module:

* the **map-side final merge**, which merges all spill segments of one
  partition and applies the user's ``combine()`` to equal-key runs;
* the **reduce-side merge**, which merges fetched map-output segments
  and feeds equal-key groups to ``reduce()``.

The merge concatenates the sorted runs and stable-sorts them by raw key
bytes — a native sort that gives a heap merge's exact order.  The
returned :class:`MergeStats` reports exactly how much work the merge
did — comparisons, records and bytes moved — so the instrumentation
ledger can charge it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from math import log2
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from ..serde.writable import SerdePair


@dataclass
class MergeStats:
    """Work accounting for one merge pass."""

    records_in: int = 0
    records_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    comparisons: int = 0
    streams: int = 0


def merge_runs(
    runs: list[Iterable[SerdePair]],
    stats: MergeStats | None = None,
) -> Iterator[SerdePair]:
    """Merge sorted runs of serialized records into one sorted stream.

    The runs are concatenated in stream order and stable-sorted by key,
    which on sorted runs is exactly a heap merge's order: equal keys come
    out by stream index, then by position in their stream.  Comparisons
    are charged as a heap merge would make them: ``2·log2(k)`` per record
    (the sift cost for a heap of ``k`` non-empty streams), matching how
    the cost model charges merges.  With a single run the records pass
    through untouched and no comparisons are charged.
    """
    if stats is None:
        stats = MergeStats()
    stats.streams = len(runs)
    if len(runs) == 1:
        merged = list(runs[0])
    else:
        lists = [run if isinstance(run, list) else list(run) for run in runs]
        merged = sorted(chain.from_iterable(lists), key=itemgetter(0))
        live = sum(1 for run in lists if run)
        stats.comparisons += len(merged) * int(max(1.0, 2.0 * log2(max(2, live))))
    size = _payload_bytes(merged)
    stats.records_in += len(merged)
    stats.records_out += len(merged)
    stats.bytes_in += size
    stats.bytes_out += size
    yield from merged


def _payload_bytes(records: list[SerdePair]) -> int:
    return sum(map(len, chain.from_iterable(records)))


GroupFn = Callable[[bytes, list[bytes]], list[SerdePair]]
"""Combiner callback: (key bytes, value bytes list) -> serialized records."""


def merge_and_combine(
    runs: list[Iterable[SerdePair]],
    combine: GroupFn | None,
    stats: MergeStats | None = None,
) -> Iterator[SerdePair]:
    """Merge sorted runs, applying *combine* to each equal-key group.

    With ``combine=None`` this is :func:`merge_runs`.  The output
    remains sorted because combining preserves each group's key.
    """
    if stats is None:
        stats = MergeStats()
    merged = merge_runs(runs, stats)
    if combine is None:
        yield from merged
        return

    # merge_runs counted its pass-through output; count what combining
    # emits instead.
    combined: list[SerdePair] = []
    for key, group in group_sorted(merged):
        combined += combine(key, group)
    stats.records_out = len(combined)
    stats.bytes_out = _payload_bytes(combined)
    yield from combined


def group_sorted(records: Iterable[SerdePair]) -> Iterator[tuple[bytes, list[bytes]]]:
    """Group a key-sorted record stream into (key, [values]) runs."""
    value_of = itemgetter(1)
    for key, group in groupby(records, itemgetter(0)):
        yield key, list(map(value_of, group))


def group_sorted_by(
    records: Iterable[SerdePair],
    group_key: Callable[[bytes], bytes],
) -> Iterator[tuple[bytes, list[SerdePair]]]:
    """Group a key-sorted stream by a *prefix* of the key (secondary sort).

    Yields ``(first_full_key, [(full_key, value), ...])`` per group; the
    records inside a group keep their full-key sort order, which is the
    whole point of the pattern (e.g. key = ``url|timestamp`` grouped by
    ``url`` delivers each URL's events time-ordered).
    """
    current_group: bytes | None = None
    first_key: bytes | None = None
    current: list[SerdePair] = []
    for key, value in records:
        group = group_key(key)
        if group != current_group:
            if first_key is not None:
                yield first_key, current
            current_group = group
            first_key = key
            current = [(key, value)]
        else:
            current.append((key, value))
    if first_key is not None:
        yield first_key, current

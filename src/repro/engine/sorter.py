"""Spill sorting: the one entry point the collector calls per spill.

Spill contents are ordered by ``(partition, key bytes)`` so a single
sorted pass can be cut into per-partition segments — Hadoop's exact
strategy (it sorts kvindices by partition then key).  The packed
kvindex sort and its comparison accounting live on
:meth:`~repro.engine.binarybuffer.BinarySpill.sort`.
"""

from __future__ import annotations

from .binarybuffer import BinarySpill, SortStats


def sort_spill(
    spill: BinarySpill, exact_comparisons: bool = False
) -> tuple[list[int], SortStats]:
    """Order one drained spill; returns (arrival sequence numbers in
    sorted order, stats for the SORT charge)."""
    return spill.sort(exact_comparisons)

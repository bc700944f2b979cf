"""Framed record streams.

The on-disk and on-wire representation of a sequence of serialized
(key, value) records::

    record := vint(len(key)) key vint(len(value)) value

The same framing is used by spill files, final map outputs, and shuffle
segments, so one reader/writer pair serves the whole pipeline.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

from ..errors import SerdeError
from ..serde.numeric import decode_vint, encode_vint, vint_size
from ..serde.writable import SerdePair


def record_frame_size(key_len: int, value_len: int) -> int:
    """Bytes one framed record occupies on disk/wire."""
    return vint_size(key_len) + key_len + vint_size(value_len) + value_len


def encode_record(key: bytes, value: bytes) -> bytes:
    """Frame a single serialized record."""
    return encode_vint(len(key)) + key + encode_vint(len(value)) + value


class _FrameLengths(dict):
    """``encode_vint(n)`` for a length *n*: one-byte lengths (0 ≤ n < 64)
    are preloaded, any other length is encoded on demand."""

    def __missing__(self, length: int) -> bytes:
        return encode_vint(length)


_FRAME_LENGTHS = _FrameLengths((n, encode_vint(n)) for n in range(64))

#: Length encoded by each one-byte vint that is a valid (even, i.e.
#: non-negative) length; -1 for every byte the full decoder must read.
_ONE_BYTE_LENGTHS = tuple(b >> 1 if b < 0x80 and not b & 1 else -1 for b in range(256))


def encode_records(records: Iterable[SerdePair]) -> bytes:
    """Frame a record sequence into one byte string."""
    pairs = list(records)
    if not pairs:
        return b""
    keys, values = zip(*pairs)
    frame = _FRAME_LENGTHS.__getitem__
    return b"".join(
        chain.from_iterable(
            zip(map(frame, map(len, keys)), keys, map(frame, map(len, values)), values)
        )
    )


def decode_records(data: bytes, offset: int = 0, end: int | None = None) -> Iterator[SerdePair]:
    """Iterate framed records in ``data[offset:end]``.

    Raises :class:`~repro.errors.SerdeError` on truncation or negative
    lengths; a well-formed stream always ends exactly at *end*.
    """
    pos = offset
    size = len(data)
    stop = size if end is None else end
    lengths = _ONE_BYTE_LENGTHS
    while pos < stop:
        key_len = lengths[data[pos]] if pos < size else -1
        if key_len < 0:
            key_len, pos = decode_vint(data, pos)
        else:
            pos += 1
        if key_len < 0 or pos + key_len > stop:
            raise SerdeError(f"corrupt record frame at offset {pos}: key length {key_len}")
        key = data[pos : pos + key_len]
        pos += key_len
        value_len = lengths[data[pos]] if pos < size else -1
        if value_len < 0:
            value_len, pos = decode_vint(data, pos)
        else:
            pos += 1
        if value_len < 0 or pos + value_len > stop:
            raise SerdeError(f"corrupt record frame at offset {pos}: value length {value_len}")
        value = data[pos : pos + value_len]
        pos += value_len
        yield key, value


def count_records(data: bytes, offset: int = 0, end: int | None = None) -> int:
    """Number of framed records in a byte range (validates framing)."""
    return sum(1 for _ in decode_records(data, offset, end))

"""Combiner plumbing: running user ``combine()`` over serialized groups.

The engine stores records serialized; the user's combiner wants
writables.  :class:`CombinerRunner` bridges the two — deserialize the
group, run the user code, re-serialize the results — while charging the
user-code cost to the ``COMBINE`` ledger op and updating counters.

The same runner serves every combine site: per-spill combining, the
end-of-map merge, hash grouping, the frequency buffer's eager in-memory
combining, node-combine, and the live pipeline's support thread.

**Raw fold.**  When the combiner's own ``combine()`` is provably
``emit(key, W(agg(v.value for v in values)))`` — ``agg`` a builtin
``sum``/``min``/``max``, ``W`` the job's exact-int map-output value
class (the matcher of :mod:`repro.lint.opt.synth`) — the runner folds
the raw value bytes itself: decode → fold → encode, with no Writable
built and no user code run.  Output bytes, counters, the COMBINE charge
and the errors raised are those of the user code: keys pass through
untouched (they were produced by ``to_bytes``, so a decode/encode round
trip is the identity), an out-of-range ``W(total)`` or ``min([])`` is a
:class:`~repro.errors.UserCodeError`, and a malformed value raises the
decoder's :class:`~repro.errors.SerdeError` outside the user-code
boundary, exactly as on the generic path.
"""

from __future__ import annotations

import builtins
import struct
from typing import Any, Callable, Type

from ..errors import SerdeError, UserCodeError
from ..serde.numeric import IntWritable, LongWritable, VIntWritable, decode_vint, encode_vint
from ..serde.writable import SerdePair, Writable
from .api import Combiner
from .costmodel import UserCodeCosts
from .counters import Counter, Counters

#: Every complete one-byte vint (high bit clear) and its value.
_ONE_BYTE_VINTS = {bytes([b]): (b >> 1) ^ -(b & 1) for b in range(0x80)}


def _vint_value(blob: bytes) -> int:
    value = _ONE_BYTE_VINTS.get(blob)
    if value is None:
        value, end = decode_vint(blob)
        if end != len(blob):
            raise SerdeError("trailing bytes after vint")
    return value


def _decode_vints(blobs: list[bytes]) -> list[int]:
    """``[VIntWritable.from_bytes(b).value for b in blobs]``, same errors."""
    try:
        return [_ONE_BYTE_VINTS[blob] for blob in blobs]
    except KeyError:
        return [_vint_value(blob) for blob in blobs]


#: Encodings of the small non-negative totals most folds produce.
_SMALL_VINTS = tuple(encode_vint(v) for v in range(1 << 10))


def _encode_vint(value: int) -> bytes:
    if 0 <= value < 1 << 10:
        return _SMALL_VINTS[value]
    return encode_vint(value)


def _fixed_codec(cls: Any, fmt: str) -> tuple[Callable, Callable]:
    """Decoder and encoder for a fixed-width int writable; on bad input
    each defers to *cls* itself so the error is the class's own."""
    codec = struct.Struct(fmt)
    unpack, pack = codec.unpack, codec.pack

    def decode(blobs: list[bytes]) -> list[int]:
        try:
            return [unpack(blob)[0] for blob in blobs]
        except struct.error:
            return [cls.from_bytes(blob).value for blob in blobs]

    def encode(total: int) -> bytes:
        try:
            return pack(total)
        except struct.error:
            return cls(total).to_bytes()

    return decode, encode


#: Raw (decode, encode) pairs for the exact-int writables, by exact type.
_RAW_CODECS: dict[type, tuple[Callable, Callable]] = {
    IntWritable: _fixed_codec(IntWritable, ">i"),
    LongWritable: _fixed_codec(LongWritable, ">q"),
    VIntWritable: (_decode_vints, _encode_vint),
}


def raw_fold(combiner: Combiner, value_cls: type) -> tuple[Callable, Callable, Callable] | None:
    """``(decode, agg, encode)`` when *combiner* is a proven exact-int
    fold over *value_cls*, else ``None`` (run the user's ``combine()``)."""
    codec = _RAW_CODECS.get(value_cls)
    if codec is None:
        return None
    # Imported here: the proof lives with the optimizer, which imports
    # engine modules itself.
    from ..lint.opt.synth import proven_combine_fold

    agg_name = proven_combine_fold(combiner, value_cls)
    if agg_name is None:
        return None
    decode, encode = codec
    return decode, getattr(builtins, agg_name), encode


_COMBINE_IN = Counter.COMBINE_INPUT_RECORDS
_COMBINE_OUT = Counter.COMBINE_OUTPUT_RECORDS


class CombinerRunner:
    """Applies a user combiner to serialized equal-key groups."""

    def __init__(
        self,
        combiner: Combiner,
        key_cls: Type[Writable],
        value_cls: Type[Writable],
        user_costs: UserCodeCosts,
        counters: Counters,
    ) -> None:
        self.combiner = combiner
        self.key_cls = key_cls
        self.value_cls = value_cls
        self.user_costs = user_costs
        self.counters = counters
        self.work_done = 0.0  # cumulative COMBINE work charged through me
        self.fold = raw_fold(combiner, value_cls)

    def combine_serialized(self, key_bytes: bytes, value_bytes_list: list[bytes]) -> list[SerdePair]:
        """Run ``combine()`` on one serialized group; returns serialized output.

        The caller charges :attr:`last_work` (also accumulated into
        :attr:`work_done`) to the ledger's COMBINE op.
        """
        if self.fold is not None:
            decode, agg, encode = self.fold
            values = decode(value_bytes_list)
            try:
                out = [(key_bytes, encode(agg(values)))]
            except Exception as exc:  # noqa: BLE001 - user code boundary
                raise UserCodeError("combine", str(exc)) from exc
            return self._account(len(values), out)

        key = self.key_cls.from_bytes(key_bytes)
        values = [self.value_cls.from_bytes(vb) for vb in value_bytes_list]

        out: list[SerdePair] = []

        def emit(out_key: Writable, out_value: Writable) -> None:
            out.append((out_key.to_bytes(), out_value.to_bytes()))

        try:
            self.combiner.combine(key, values, emit)
        except Exception as exc:  # noqa: BLE001 - user code boundary
            raise UserCodeError("combine", str(exc)) from exc
        return self._account(len(values), out)

    def combine_writables(
        self, key: Writable, values: list[Writable]
    ) -> list[tuple[Writable, Writable]]:
        """Run ``combine()`` on live writables (frequency-buffer fast path:
        no deserialization needed because the buffer stores writables)."""
        if self.fold is not None:
            agg = self.fold[1]
            wrap: Any = self.value_cls
            try:
                folded = [(key, wrap(agg(v.value for v in values)))]  # type: ignore[attr-defined]
            except Exception as exc:  # noqa: BLE001 - user code boundary
                raise UserCodeError("combine", str(exc)) from exc
            return self._account(len(values), folded)

        out: list[tuple[Writable, Writable]] = []

        def emit(out_key: Writable, out_value: Writable) -> None:
            out.append((out_key, out_value))

        try:
            self.combiner.combine(key, values, emit)
        except Exception as exc:  # noqa: BLE001 - user code boundary
            raise UserCodeError("combine", str(exc)) from exc
        return self._account(len(values), out)

    def _account(self, n_in: int, out: list) -> list:
        """Count one combined group and set its modelled COMBINE work
        (``Counters.incr`` inlined: this runs once per group)."""
        counts = self.counters.values
        if n_in:
            counts[_COMBINE_IN] = counts.get(_COMBINE_IN, 0) + n_in
        if out:
            counts[_COMBINE_OUT] = counts.get(_COMBINE_OUT, 0) + len(out)
        self.last_work = work = self.user_costs.combine_record * n_in
        self.work_done += work
        return out

    last_work: float = 0.0

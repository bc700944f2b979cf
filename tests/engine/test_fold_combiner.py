"""The raw-bytes fold combiner: parity with the user's ``combine()``.

A combiner whose own ``combine()`` is provably
``emit(key, W(agg(v.value for v in values)))`` is run by
:class:`CombinerRunner` as decode → fold → encode over the raw value
bytes.  Every case here runs the proven path beside an *opaque* twin —
the same class with ``combine`` re-bound on the instance, which the
prover refuses, so the user's body runs — and requires identical output
bytes, counters, modelled work and errors.

Fixture classes live at module level so ``inspect`` can recover their
source, as it must for real user jobs.
"""

from __future__ import annotations

import functools

import pytest

from repro.engine.api import Combiner
from repro.engine.combiner import CombinerRunner
from repro.engine.costmodel import UserCodeCosts
from repro.engine.counters import Counters
from repro.errors import SerdeError, UserCodeError
from repro.lint.opt.synth import FoldCombinerFactory
from repro.serde.numeric import FloatWritable, IntWritable, LongWritable, VIntWritable
from repro.serde.text import Text


class SumInt(Combiner):
    def combine(self, key, values, emit):
        emit(key, IntWritable(sum(v.value for v in values)))


class MinInt(Combiner):
    def combine(self, key, values, emit):
        emit(key, IntWritable(min(v.value for v in values)))


class MaxInt(Combiner):
    def combine(self, key, values, emit):
        emit(key, IntWritable(max(v.value for v in values)))


class SumLong(Combiner):
    def combine(self, key, values, emit):
        emit(key, LongWritable(sum(v.value for v in values)))


class MinLong(Combiner):
    def combine(self, key, values, emit):
        emit(key, LongWritable(min(v.value for v in values)))


class MaxLong(Combiner):
    def combine(self, key, values, emit):
        emit(key, LongWritable(max(v.value for v in values)))


class SumVInt(Combiner):
    def combine(self, key, values, emit):
        """A docstring does not change the fold shape."""
        emit(key, VIntWritable(sum(v.value for v in values)))


class MinVInt(Combiner):
    def combine(self, key, values, emit):
        emit(key, VIntWritable(min(v.value for v in values)))


class MaxVInt(Combiner):
    def combine(self, key, values, emit):
        emit(key, VIntWritable(max(v.value for v in values)))


PROVEN = {
    (IntWritable, "sum"): SumInt, (IntWritable, "min"): MinInt,
    (IntWritable, "max"): MaxInt, (LongWritable, "sum"): SumLong,
    (LongWritable, "min"): MinLong, (LongWritable, "max"): MaxLong,
    (VIntWritable, "sum"): SumVInt, (VIntWritable, "min"): MinVInt,
    (VIntWritable, "max"): MaxVInt,
}

#: Per-class value groups: negatives, multi-byte vints, range edges
#: (every sum stays in range; overflow has its own test).
GROUPS = {
    IntWritable: [[1], [5, -3, 300], [-70000, 2**20, 1, 2**31 - 1, -(2**31) + 5]],
    LongWritable: [[1], [2**40, -(2**50), 7], [-(2**63) + 9, 2**62, -1]],
    VIntWritable: [[1], [1] * 40, [-1, 63, 64, -65, 300, 2**20, -(2**35), 0]],
}
KEYS = ["", "apple", "épée", "k" * 300]


def runner_for(combiner, value_cls, key_cls=Text) -> CombinerRunner:
    return CombinerRunner(combiner, key_cls, value_cls, UserCodeCosts(), Counters())


def opaque(combiner):
    """The same class and body, with ``combine`` re-bound on the
    instance: unprovable, so the runner calls the user code."""
    combiner.combine = type(combiner).combine.__get__(combiner)
    return combiner


def serialized_groups(value_cls):
    return [
        (Text(key).to_bytes(), [value_cls(v).to_bytes() for v in group])
        for key in KEYS
        for group in GROUPS[value_cls]
    ]


def drive_serialized(runner, groups):
    out = []
    for key_bytes, value_bytes in groups:
        out.append((runner.combine_serialized(key_bytes, value_bytes), runner.last_work))
    return out, runner.counters.values, runner.work_done


@pytest.mark.parametrize("agg", ("sum", "min", "max"))
@pytest.mark.parametrize(
    "value_cls", (IntWritable, LongWritable, VIntWritable), ids=lambda c: c.__name__
)
class TestParity:
    def test_proven_path_taken(self, value_cls, agg):
        assert runner_for(PROVEN[value_cls, agg](), value_cls).fold is not None
        assert runner_for(opaque(PROVEN[value_cls, agg]()), value_cls).fold is None

    def test_serialized_bytes_counters_work_identical(self, value_cls, agg):
        cls = PROVEN[value_cls, agg]
        groups = serialized_groups(value_cls)
        proven = drive_serialized(runner_for(cls(), value_cls), groups)
        generic = drive_serialized(runner_for(opaque(cls()), value_cls), groups)
        assert proven == generic

    def test_writables_identical(self, value_cls, agg):
        cls = PROVEN[value_cls, agg]
        proven, generic = runner_for(cls(), value_cls), runner_for(opaque(cls()), value_cls)
        for key in KEYS:
            for group in GROUPS[value_cls]:
                values = [value_cls(v) for v in group]
                assert proven.combine_writables(Text(key), values) == (
                    generic.combine_writables(Text(key), values)
                )
                assert proven.last_work == generic.last_work
        assert proven.counters.values == generic.counters.values


def test_keys_pass_through_untouched():
    """The fold emits the group's key bytes as given.  That is the
    user's ``emit(key, ...)`` exactly because every key reaching a
    combiner was produced by ``to_bytes``, and decoding then
    re-encoding such bytes is the identity."""
    keys = [Text(k) for k in KEYS] + [IntWritable(-7), LongWritable(2**40), VIntWritable(-300)]
    for key in keys:
        key_bytes = key.to_bytes()
        assert type(key).from_bytes(key_bytes).to_bytes() == key_bytes
        proven = runner_for(SumVInt(), VIntWritable, key_cls=type(key))
        generic = runner_for(opaque(SumVInt()), VIntWritable, key_cls=type(key))
        values = [VIntWritable(3).to_bytes()] * 2
        [(out_key, _)] = proven.combine_serialized(key_bytes, values)
        assert out_key is key_bytes
        assert proven.combine_serialized(key_bytes, values) == (
            generic.combine_serialized(key_bytes, values)
        )


# ----------------------------------------------------------------------
# errors: same type, same message, same side of the user-code boundary
# ----------------------------------------------------------------------
def both_raise(cls, value_cls, key_bytes, value_bytes, error):
    messages = []
    for combiner in (cls(), opaque(cls())):
        runner = runner_for(combiner, value_cls)
        with pytest.raises(error) as excinfo:
            runner.combine_serialized(key_bytes, value_bytes)
        assert type(excinfo.value) is error
        assert runner.counters.values == {}
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    return messages[0]


def test_32_bit_overflow_is_a_user_code_error():
    values = [IntWritable(2**31 - 1).to_bytes(), IntWritable(1).to_bytes()]
    message = both_raise(SumInt, IntWritable, b"\x01k", values, UserCodeError)
    assert "out of 32-bit range" in message


def test_empty_min_is_a_user_code_error():
    both_raise(MinVInt, VIntWritable, b"\x01k", [], UserCodeError)


def test_vint_with_trailing_bytes_is_a_serde_error():
    values = [b"\x02", b"\x02\x00"]
    assert "trailing bytes" in both_raise(SumVInt, VIntWritable, b"\x01k", values, SerdeError)


def test_truncated_fixed_width_value_is_a_serde_error():
    values = [IntWritable(1).to_bytes(), b"\x00\x01\x02"]
    assert "needs 4 bytes" in both_raise(SumInt, IntWritable, b"\x01k", values, SerdeError)


# ----------------------------------------------------------------------
# what the prover refuses: these run the user's combine()
# ----------------------------------------------------------------------
def _shadowed_sum_combiner():
    def sum(values):  # noqa: A001 - the shadowing is the point
        return 0

    class ShadowedSum(Combiner):
        def combine(self, key, values, emit):
            emit(key, VIntWritable(sum(v.value for v in values)))

    return ShadowedSum()


class CountingCombiner(Combiner):
    def combine(self, key, values, emit):
        emit(key, VIntWritable(sum(1 for _ in values)))


class WideningCombiner(Combiner):
    def combine(self, key, values, emit):
        emit(key, LongWritable(sum(v.value for v in values)))


class FloatSum(Combiner):
    def combine(self, key, values, emit):
        emit(key, FloatWritable(sum(v.value for v in values)))


def passthrough(fn):
    return fn


class DecoratedSum(Combiner):
    @passthrough
    def combine(self, key, values, emit):
        emit(key, VIntWritable(sum(v.value for v in values)))


class InheritsSum(SumVInt):
    pass


@pytest.mark.parametrize(
    ("make", "value_cls"),
    [
        (_shadowed_sum_combiner, VIntWritable),
        (CountingCombiner, VIntWritable),
        (WideningCombiner, IntWritable),
        (FloatSum, FloatWritable),
        (DecoratedSum, VIntWritable),
        (lambda: opaque(SumVInt()), VIntWritable),
        (InheritsSum, VIntWritable),
    ],
    ids=(
        "shadowed-sum", "count-idiom", "wrapper-not-value-class", "float-values",
        "decorated", "instance-attribute", "inherited",
    ),
)
def test_unprovable_falls_back(make, value_cls):
    assert runner_for(make(), value_cls).fold is None


def test_shadowed_sum_runs_the_user_code():
    runner = runner_for(_shadowed_sum_combiner(), VIntWritable)
    assert runner.combine_serialized(b"\x01k", [b"\x02", b"\x02"]) == [(b"\x01k", b"\x00")]


class WrappedSum(Combiner):
    def combine(self, key, values, emit):
        emit(key, VIntWritable(sum(v.value for v in values)))


#: A tracer's wrapper factory, compiled in a namespace of its own as a
#: tracer module would be: neither ``VIntWritable`` nor the combiner's
#: other names resolve there.
_TRACER_SOURCE = """
def instrument(fn, calls):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    return traced
"""


def test_recognition_survives_a_wraps_wrapper(monkeypatch):
    """An instrumentation wrapper installed on the class (as a tracer
    does) hides nothing: the prover reads the wrapped function, and
    resolves its names where that function was defined."""
    tracer: dict = {"functools": functools}
    exec(_TRACER_SOURCE, tracer)  # noqa: S102 - fixed source, own namespace
    calls: list = []
    monkeypatch.setattr(WrappedSum, "combine", tracer["instrument"](WrappedSum.combine, calls))
    runner = runner_for(WrappedSum(), VIntWritable)
    assert runner.fold is not None
    assert runner.combine_serialized(b"\x01k", [b"\x02"] * 3) == [(b"\x01k", b"\x06")]
    assert calls == [], "a proven fold never calls the user combine()"


def test_synthesized_combiner_recognized_by_type():
    assert runner_for(FoldCombinerFactory(VIntWritable, "max")(), VIntWritable).fold is not None
    assert runner_for(FoldCombinerFactory(IntWritable, "sum")(), VIntWritable).fold is None

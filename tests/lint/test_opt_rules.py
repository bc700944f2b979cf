"""Unit tests for the static optimizer's rewrite detectors and plans.

Fixture classes live at module level so ``inspect`` can recover their
source — the same requirement real user jobs meet.  The anchored-line
assertions derive expected line numbers from ``inspect`` at test time,
so edits to the fixture files cannot silently rot them.
"""

from __future__ import annotations

import inspect
import pickle

import pytest

from repro.apps.registry import build_application
from repro.apps.unsafe import AliasingFieldReducer, ImpurePredicateMapper
from repro.config import JobConf, Keys
from repro.engine.api import Mapper, Reducer
from repro.engine.inputformat import TextInput
from repro.engine.job import JobSpec
from repro.engine.runner import LocalJobRunner
from repro.io.prefilter import PreFilteredTextInput, RecordPredicate
from repro.lint.findings import FOLD_VERIFIED, LintReport
from repro.lint.opt import (
    ACTION_ADVISED,
    ACTION_DISABLED,
    ACTION_REJECTED,
    ACTION_SKIPPED,
    OPT_PROJECT,
    OPT_SELECT,
    OPT_SYNTH,
    apply_plan,
    detect_fold,
    detect_projection,
    detect_selection,
    plan_job,
)
from repro.lint.target import resolve_target
from repro.serde.numeric import IntWritable, LongWritable, VIntWritable
from repro.serde.projection import FieldProjection
from repro.serde.text import Text


def make_job(mapper, reducer, combiner=None, value_cls=Text, conf_overrides=None):
    from repro.apps.base import make_conf

    return JobSpec(
        name="opt-unit",
        input_format=TextInput(b"a|1|x|9\nb|2|y|8\n", split_size=8),
        mapper_factory=mapper,
        reducer_factory=reducer,
        combiner_factory=combiner,
        map_output_key_cls=Text,
        map_output_value_cls=value_cls,
        conf=make_conf(conf_overrides),
    )


# ----------------------------------------------------------------------
# registered-app plans (advise mode): the shape the optimizer promises
# ----------------------------------------------------------------------
APP_EXPECTATIONS = {
    # app -> {optimization: action}
    "wordcount": {OPT_SELECT: ACTION_REJECTED, OPT_PROJECT: ACTION_SKIPPED,
                  OPT_SYNTH: ACTION_SKIPPED},
    "accesslogsum": {OPT_SELECT: ACTION_ADVISED, OPT_PROJECT: ACTION_SKIPPED,
                     OPT_SYNTH: ACTION_SKIPPED},
    "selection": {OPT_SELECT: ACTION_ADVISED, OPT_PROJECT: ACTION_REJECTED,
                  OPT_SYNTH: ACTION_REJECTED},
    "accesslogip": {OPT_SELECT: ACTION_ADVISED, OPT_PROJECT: ACTION_SKIPPED,
                    OPT_SYNTH: ACTION_ADVISED},
}


@pytest.mark.parametrize("name", sorted(APP_EXPECTATIONS))
def test_registered_app_plan_shapes(name):
    app = build_application(name, scale=0.01)
    plan = plan_job(app.job, subject=name, mode="advise")
    actions = {d.optimization: d.action for d in plan.decisions}
    assert actions == APP_EXPECTATIONS[name]
    # Every decision names its rule and carries a reason.
    assert all(d.reason for d in plan.decisions)


def test_accesslogip_gets_a_synthesized_sum_combiner():
    app = build_application("accesslogip", scale=0.01)
    plan = plan_job(app.job, mode="advise")
    assert plan.synthesized_combiner is not None
    assert plan.synthesized_combiner.agg_name == "sum"
    assert "sum" in plan.synthesized_combiner.describe()


def test_selection_predicate_compiles_and_filters():
    app = build_application("selection", scale=0.01)
    plan = plan_job(app.job, mode="advise")
    assert plan.predicate_source is not None
    pred = RecordPredicate(plan.predicate_source)
    # The selection app keeps rankings rows with pageRank > threshold
    # (url|rank|duration); malformed and empty lines stay (conservative).
    assert pred("url-1|9500|12") is True
    assert pred("url-2|10|12") is False
    assert pred("garbage-without-delims") is True
    assert pred("") is False  # `if not line: return` guard hoisted too


# ----------------------------------------------------------------------
# the unsafeopt fixture: every rule rejected, at the right line
# ----------------------------------------------------------------------
def _line_of(cls, fragment: str) -> int:
    source, start = inspect.getsourcelines(cls)
    for offset, line in enumerate(source):
        if fragment in line:
            return start + offset
    raise AssertionError(f"{fragment!r} not found in {cls.__name__}")


def test_unsafeopt_fixture_rejects_every_rule_with_anchors():
    app = build_application("unsafeopt", scale=0.01, include_fixtures=True)
    plan = plan_job(app.job, mode="advise")
    actions = {d.optimization: d.action for d in plan.decisions}
    assert actions == {OPT_SELECT: ACTION_REJECTED, OPT_PROJECT: ACTION_REJECTED,
                       OPT_SYNTH: ACTION_REJECTED}

    select = plan.decision_for(OPT_SELECT)
    assert select.file.endswith("unsafe.py")
    assert select.line == _line_of(ImpurePredicateMapper, "random.random()")

    project = plan.decision_for(OPT_PROJECT)
    assert project.line == _line_of(AliasingFieldReducer, 'fields[2] = "0"')

    synth = plan.decision_for(OPT_SYNTH)
    assert synth.line == _line_of(AliasingFieldReducer, "def reduce")


# ----------------------------------------------------------------------
# count-pattern refusal: a combiner would collapse the counted records
# ----------------------------------------------------------------------
class PassMapper(Mapper):
    def map(self, key, value, emit):
        emit(Text(value.value.split("|")[0]), VIntWritable(1))


class CountingReducer(Reducer):
    def reduce(self, key, values, emit):
        emit(key, VIntWritable(sum(1 for _ in values)))


def test_record_counting_fold_is_refused():
    job = make_job(PassMapper, CountingReducer, value_cls=VIntWritable)
    factory, decision = detect_fold(resolve_target(job))
    assert factory is None
    assert decision.action == ACTION_REJECTED
    assert "counts records" in decision.reason


# ----------------------------------------------------------------------
# widening refusal: the wrapper must be the map-output value class
# ----------------------------------------------------------------------
class MaxIntMapper(Mapper):
    def map(self, key, value, emit):
        for _ in range(4):
            emit(Text("k"), IntWritable(2147483647))


class WideningReducer(Reducer):
    def reduce(self, key, values, emit):
        emit(key, LongWritable(sum(v.value for v in values)))


def _widening_job(opt_mode: str) -> JobSpec:
    return JobSpec(
        name="opt-widening",
        input_format=TextInput(b"x\n", split_size=8),
        mapper_factory=MaxIntMapper,
        reducer_factory=WideningReducer,
        map_output_key_cls=Text,
        map_output_value_cls=IntWritable,
        conf=JobConf({Keys.LINT_OPT_MODE: opt_mode}),
    )


def test_widening_fold_is_refused():
    """A combiner re-wraps each partial sum in the map-output class
    (IntWritable), so synthesizing one for a reducer that widens to
    LongWritable would overflow where the plain job does not."""
    factory, decision = detect_fold(resolve_target(_widening_job("off")))
    assert factory is None
    assert decision.action == ACTION_REJECTED
    assert "LongWritable" in decision.reason and "IntWritable" in decision.reason
    assert decision.line == _line_of(WideningReducer, "LongWritable(sum")

    plain = LocalJobRunner().run(_widening_job("off"))
    applied = LocalJobRunner().run(_widening_job("apply"))
    expected = [("k", 4 * 2147483647)]
    assert [(k.value, v.value) for k, v in plain.output_pairs()] == expected
    assert [(k.value, v.value) for k, v in applied.output_pairs()] == expected


# ----------------------------------------------------------------------
# projection detection and the FieldProjection artifact
# ----------------------------------------------------------------------
class WholeLineMapper(Mapper):
    def map(self, key, value, emit):
        line = value.value
        if not line:
            return
        emit(Text(line.split("|")[0]), Text(line))


class FieldThreeReducer(Reducer):
    def reduce(self, key, values, emit):
        total = 0.0
        for v in values:
            fields = v.value.split("|")
            total += float(fields[3])
        emit(key, Text(f"{total:.2f}"))


def test_projection_proves_the_single_read_field():
    job = make_job(WholeLineMapper, FieldThreeReducer)
    projection, decision = detect_projection(resolve_target(job))
    assert decision.action == ACTION_ADVISED
    assert projection == FieldProjection(delimiter="|", keep=frozenset({3}))


def test_field_projection_blanks_dead_fields_preserving_layout():
    proj = FieldProjection(delimiter="|", keep=frozenset({1, 3}))
    assert proj.project("a|b|c|d|e") == "|b||d|"
    # Positional addressing survives for the consumer.
    assert proj.project("a|b|c|d|e").split("|")[3] == "d"
    assert proj.project("short") == ""
    with pytest.raises(ValueError):
        FieldProjection(delimiter="", keep=frozenset({0}))
    with pytest.raises(ValueError):
        FieldProjection(delimiter="|", keep=frozenset({-1}))


def test_aliasing_reducer_defeats_projection():
    job = make_job(WholeLineMapper, AliasingFieldReducer)
    projection, decision = detect_projection(resolve_target(job))
    assert projection is None
    assert decision.action == ACTION_REJECTED


# ----------------------------------------------------------------------
# conf switches: every rewrite is individually refusable
# ----------------------------------------------------------------------
def test_per_rule_switches_disable_individually():
    job = make_job(WholeLineMapper, FieldThreeReducer,
                   conf_overrides={Keys.LINT_OPT_PROJECT: False})
    plan = plan_job(job, mode="advise")
    assert plan.decision_for(OPT_PROJECT).action == ACTION_DISABLED
    assert plan.projection is None
    # The other rules still ran.
    assert plan.decision_for(OPT_SELECT).action == ACTION_ADVISED
    assert plan.predicate_source is not None


def test_all_switches_off_plans_nothing():
    job = make_job(WholeLineMapper, FieldThreeReducer, conf_overrides={
        Keys.LINT_OPT_SELECT: False,
        Keys.LINT_OPT_PROJECT: False,
        Keys.LINT_OPT_SYNTH: False,
    })
    plan = plan_job(job, mode="advise")
    assert all(d.action == ACTION_DISABLED for d in plan.decisions)
    assert apply_plan(job, plan) is job  # nothing to install


# ----------------------------------------------------------------------
# apply_plan mechanics
# ----------------------------------------------------------------------
def test_apply_preserves_job_identity_and_installs_rewrites():
    app = build_application("accesslogip", scale=0.01)
    original_id = app.job.job_id()
    plan = plan_job(app.job, mode="apply")
    report = LintReport(subject="accesslogip")
    rewritten = apply_plan(app.job, plan, report)

    assert rewritten is not app.job
    assert rewritten.job_id() == original_id  # cache/provenance identity pinned
    assert isinstance(rewritten.input_format, PreFilteredTextInput)
    assert rewritten.combiner_factory is plan.synthesized_combiner
    # The synthesized combiner re-verifies as a fold, unlocking freqbuf.
    assert report.fold_like == FOLD_VERIFIED
    applied = {d.optimization for d in plan.applied}
    assert applied == {OPT_SELECT, OPT_SYNTH}


def test_record_predicate_pickles_by_source():
    pred = RecordPredicate("def _keep(_line):\n    return len(_line) > 3\n",
                           description="unit")
    clone = pickle.loads(pickle.dumps(pred))
    assert clone("long line") is True
    assert clone("ab") is False
    assert clone.description == "unit"


class ExplodingPredicateMapper(Mapper):
    def map(self, key, value, emit):
        emit(Text(value.value), Text(value.value))


def test_raising_predicate_keeps_the_record():
    # Conservative failure semantics: a predicate that raises keeps the
    # record so the mapper sees exactly what the unoptimized job would.
    pred = RecordPredicate("def _keep(_line):\n    return int(_line) > 0\n")
    inner = TextInput(b"12\nnot-a-number\n", split_size=64)
    fmt = PreFilteredTextInput(inner, pred)
    (split,) = fmt.splits()
    records = list(fmt.record_reader(split))
    kept = [(k, v) for k, v, _ in records if k is not None]
    assert len(kept) == 2  # "12" matched; "not-a-number" raised -> kept


def test_selection_is_rejected_for_mapper_with_state():
    job = make_job(ImpurePredicateMapper, FieldThreeReducer)
    source, decision = detect_selection(resolve_target(job))
    assert source is None
    assert decision.action == ACTION_REJECTED

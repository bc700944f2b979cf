"""The pipeline abstraction adds no semantics: a chained pipeline's
datasets are byte-identical to manually sequencing the same jobs.

The reference is the textindex chain run by hand — generate the corpus,
run WordCount, render, feed the rendered table to InvertedIndex, render
— on the serial backend.  Every backend's pipeline run must reproduce
those exact bytes (the backends are non-semantic, and the pipeline only
moves datasets), including over the real network shuffle.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.apps.invertedindex import invertedindex_jobspec
from repro.apps.pipelines import build_textfan, build_textindex
from repro.apps.wordcount import wordcount_jobspec
from repro.config import Keys
from repro.dag import render_tsv, run_pipeline
from repro.data.textcorpus import CorpusSpec, generate_corpus
from repro.engine.counters import Counter
from repro.engine.runner import LocalJobRunner

SCALE = 0.01
BACKENDS = ("serial", "process")


@pytest.fixture(scope="module")
def manual_chain() -> dict[str, bytes]:
    """The hand-sequenced reference: corpus -> wordcount -> invertedindex."""
    corpus = generate_corpus(CorpusSpec(seed=0).scaled(SCALE))
    wc_result = LocalJobRunner().run(wordcount_jobspec(corpus, path="corpus.txt"))
    wc_tsv = render_tsv(wc_result)
    ii_result = LocalJobRunner().run(
        invertedindex_jobspec(wc_tsv, path="wordcount.tsv", name="invertedindex")
    )
    return {
        "corpus": corpus,
        "wordcount": wc_tsv,
        "invertedindex": render_tsv(ii_result),
    }


def stage_conf(backend: str, shuffle: str = "mem") -> dict:
    return {
        Keys.EXEC_BACKEND: backend,
        Keys.EXEC_WORKERS: 2,
        Keys.SHUFFLE_MODE: shuffle,
    }


@pytest.mark.parametrize("backend", BACKENDS)
def test_pipeline_matches_manual_sequence(backend, manual_chain):
    result = run_pipeline(build_textindex(scale=SCALE), stage_conf=stage_conf(backend))
    assert result.ok, [r.describe() for r in result.stages]
    assert result.datasets == manual_chain

    # Provenance on the chained stage: a real job id and the content
    # digest of exactly the bytes handed downstream.
    wc = result.stage("wordcount")
    assert len(wc.job_id) == 16
    assert wc.output_digest == hashlib.sha256(manual_chain["wordcount"]).hexdigest()
    assert wc.job_result is not None
    assert wc.job_result.job_id == wc.job_id


@pytest.mark.network
def test_pipeline_net_shuffle_matches_mem(manual_chain):
    result = run_pipeline(
        build_textindex(scale=SCALE), stage_conf=stage_conf("process", shuffle="net")
    )
    assert result.ok, [r.describe() for r in result.stages]
    assert result.datasets == manual_chain


def test_fanout_pipeline_runs_both_branches(manual_chain):
    """textfan's WordCount branch reads the same corpus, so it must hand
    off the same count table the chained pipeline produced."""
    result = run_pipeline(build_textfan(scale=SCALE))
    assert result.ok
    assert result.counters.get(Counter.PIPELINE_STAGES_DONE) == 3
    assert result.output("corpus") == manual_chain["corpus"]
    assert result.output("wordcount") == manual_chain["wordcount"]
    # The fan branch indexes the *corpus*, not the count table.
    assert result.output("invertedindex") != manual_chain["invertedindex"]
    assert result.counters.get(Counter.PIPELINE_HANDOFF_BYTES) == sum(
        len(d) for d in result.datasets.values()
    )


def test_stage_timings_recorded(manual_chain):
    result = run_pipeline(build_textindex(scale=SCALE))
    samples = result.ledger.get_samples("pipeline.stage_seconds")
    assert len(samples) == 3
    assert result.seconds > 0
    assert all(stage.seconds >= 0 for stage in result.stages)

"""Golden-fixture suite for the packed binary map-output collector.

The collector is a hot-path representation (one contiguous kvbuffer
plus a flat kvindex) and its combine sites fold proven exact-int
combiners on raw bytes, but neither may change a single observable:
spill boundaries, spill files, counters and every modelled work charge
are pinned in ``map_output_golden.json``.  The fixture was recorded
from the object-buffer collector (one ``BufferedRecord`` per record,
every combine through the user's ``combine()``) that this collector
replaced, so each cell here is a parity check against that path.

Regenerate (only when a change is *meant* to move these numbers)::

    PYTHONPATH=src python -m tests.engine.test_binary_collector

Ledger equality is asserted only where the work model is deterministic:
the ``net`` shuffle mode charges measured wall-clock seconds for each
fetch (see ``NetShuffleService``), so the net cell pins the digest and
counters only.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.config import Keys
from repro.engine.api import HashPartitioner
from repro.engine.collector import StandardCollector
from repro.engine.combiner import CombinerRunner
from repro.engine.costmodel import DEFAULT_COST_MODEL, UserCodeCosts
from repro.engine.counters import Counter, Counters
from repro.engine.instrumentation import Ledger, TaskInstruments
from repro.engine.runner import LocalJobRunner
from repro.engine.spillpolicy import StaticSpillPolicy
from repro.errors import SpillBufferError
from repro.experiments.common import build_app
from repro.io.blockdisk import LocalDisk
from repro.io.spillfile import read_segment
from repro.serde.numeric import VIntWritable
from repro.serde.text import Text
from tests.conftest import SumCombiner, make_wordcount_job, tiny_text

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "map_output_golden.json")

PAPER_APPS = ("wordcount", "invertedindex", "wordpostag")


def make_collector(
    capacity: int = 512,
    partitions: int = 2,
    combiner: bool = True,
    spill_percent: float = 0.8,
    exact: bool = False,
    combine_path: str = "binary",
):
    """*combine_path* picks how the combiner runs: ``binary`` folds the
    raw value bytes (the proven sum), ``object`` runs the user's
    ``combine()`` over Writables (``combine`` re-bound on the instance,
    which the prover refuses)."""
    counters = Counters()
    instruments = TaskInstruments(Ledger())
    runner = None
    if combiner:
        user_combiner = SumCombiner()
        if combine_path == "object":
            user_combiner.combine = SumCombiner.combine.__get__(user_combiner)
        runner = CombinerRunner(
            user_combiner, Text, VIntWritable, UserCodeCosts(), counters
        )
        assert (runner.fold is not None) == (combine_path == "binary")
    collector = StandardCollector(
        task_id="t0",
        disk=LocalDisk(),
        num_partitions=partitions,
        partitioner=HashPartitioner(),
        policy=StaticSpillPolicy(spill_percent),
        capacity_bytes=capacity,
        cost_model=DEFAULT_COST_MODEL,
        instruments=instruments,
        counters=counters,
        combiner_runner=runner,
        exact_comparisons=exact,
    )
    return collector, counters, instruments


WORDS = (["pear", "apple", "fig", "apple", "kiwi", "épée", ""] * 40) + [
    f"word{i % 17}" for i in range(200)
]
#: Keys sharing an 8-byte prefix (and short keys whose padding collides
#: with explicit trailing NULs): the kvindex sort must settle them by
#: full key bytes.
PREFIX_TIES = ["prefix00aaa", "prefix00", "prefix00zzz", "a", "ab", "b"] * 20


# ----------------------------------------------------------------------
# cells: each returns a JSON-able dict of observables
# ----------------------------------------------------------------------
def _counters(counters: Counters) -> dict[str, int]:
    return {str(getattr(k, "value", k)): v for k, v in sorted(counters.values.items())}


def _ledger(ledger: Ledger) -> dict[str, float]:
    return {str(getattr(k, "value", k)): v for k, v in sorted(ledger.work.items())}


def unit_cell(words, **kwargs) -> dict:
    collector, counters, instruments = make_collector(**kwargs)
    for word in words:
        collector.collect(Text(word), VIntWritable(1))
    index = collector.flush()
    segments = [
        list(read_segment(collector.disk, index, p))
        for p in range(collector.num_partitions)
    ]
    return {
        "segments": hashlib.sha256(repr(segments).encode()).hexdigest(),
        "counters": _counters(counters),
        "ledger": _ledger(instruments.ledger),
    }


def job_cell(job, ledger: bool = True) -> dict:
    result = LocalJobRunner().run(job)
    cell = {"digest": result.output_digest(), "counters": _counters(result.counters)}
    if ledger:
        cell["ledger"] = _ledger(result.ledger)
    return cell


def app_job(app_name: str, config: str = "baseline", backend: str = "serial", **conf):
    extra = {
        Keys.EXEC_BACKEND: backend,
        Keys.EXEC_WORKERS: 3,
        Keys.SPILL_BUFFER_BYTES: 16 * 1024,  # force real multi-spill merges
    }
    extra.update(conf)
    return build_app(app_name, config, scale=0.02, num_splits=3, extra_conf=extra).job


def _unit_cells() -> dict:
    cells = {}
    for combiner in (False, True):
        for exact in (False, True):
            name = f"unit-{'combine' if combiner else 'plain'}-{'exact' if exact else 'model'}"
            cells[name] = unit_cell(WORDS, capacity=400, combiner=combiner, exact=exact)
    cells["unit-boundaries-300"] = unit_cell(WORDS, capacity=300)
    cells["unit-prefix-ties"] = unit_cell(PREFIX_TIES, capacity=256, combiner=False)
    return cells


def _job_cells() -> dict:
    cells = {}
    for app_name in PAPER_APPS:
        for config in ("baseline", "combined"):
            cells[f"{app_name}-{config}"] = job_cell(app_job(app_name, config))
    cells["wordcount-zlib-freqbuf"] = job_cell(
        app_job("wordcount", **{Keys.SPILL_COMPRESSION: "zlib", Keys.FREQBUF_ENABLED: True})
    )
    cells["wordcount-process"] = job_cell(app_job("wordcount", backend="process"))
    cells["wordcount-exact"] = job_cell(
        make_wordcount_job(tiny_text.__wrapped__(), {Keys.EXACT_COMPARISON_COUNTING: True})
    )
    cells["wordcount-net"] = job_cell(
        app_job("wordcount", **{Keys.SHUFFLE_MODE: "net"}), ledger=False
    )
    return cells


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class TestCollectorEquivalence:
    """Unit-level: one emit stream through the collector."""

    @pytest.mark.parametrize("combiner", (False, True), ids=("plain", "combine"))
    @pytest.mark.parametrize("exact", (False, True), ids=("model", "exact"))
    def test_segments_counters_ledger_identical(self, golden, combiner, exact):
        name = f"unit-{'combine' if combiner else 'plain'}-{'exact' if exact else 'model'}"
        cell = unit_cell(WORDS, capacity=400, combiner=combiner, exact=exact)
        assert cell["counters"][Counter.SPILLS.value] > 1, "want a multi-spill run"
        assert cell == golden[name]

    def test_spill_boundaries_identical(self, golden):
        """Occupancy accounting (payload + per-record metadata) cuts
        spills after the same record as the object buffer did."""
        cell = unit_cell(WORDS, capacity=300)
        assert cell["counters"][Counter.SPILLS.value] == (
            golden["unit-boundaries-300"]["counters"][Counter.SPILLS.value]
        )
        assert cell == golden["unit-boundaries-300"]

    def test_prefix_ties_settled_by_full_key(self, golden):
        assert unit_cell(PREFIX_TIES, capacity=256, combiner=False) == (
            golden["unit-prefix-ties"]
        )


class TestOversizedRecord:
    """A single record that can never fit fails fast and identifies
    itself, before any useless spill, whichever way the combiner runs."""

    @pytest.mark.parametrize("mode", ("object", "binary"))
    def test_oversized_record_identified(self, mode):
        collector, counters, _ = make_collector(capacity=256, combine_path=mode)
        collector.collect(Text("small"), VIntWritable(1))
        with pytest.raises(SpillBufferError) as excinfo:
            collector.collect(Text("K" * 300), VIntWritable(1))
        message = str(excinfo.value)
        assert "single record" in message
        assert "KKKK" in message, "message must preview the offending key"
        assert "partition" in message
        assert "repro.io.sort.buffer.bytes" in message
        # Failed before spilling the records already buffered.
        assert counters.get(Counter.SPILLS) == 0

    @pytest.mark.parametrize("mode", ("object", "binary"))
    def test_record_over_threshold_spills_cleanly(self, mode):
        """Larger than the spill threshold but within capacity: the
        record lands in its own clean single-record spill, no error."""
        collector, counters, _ = make_collector(
            capacity=512, spill_percent=0.5, combine_path=mode
        )
        big = "B" * 400  # > 0.5 * 512 threshold, < 512 capacity
        collector.collect(Text(big), VIntWritable(1))
        index = collector.flush()
        assert counters.get(Counter.SPILLS) >= 1
        records = [
            pair
            for p in range(collector.num_partitions)
            for pair in read_segment(collector.disk, index, p)
        ]
        assert len(records) == 1
        assert Text.from_bytes(records[0][0]).value == big


class TestJobLevelByteIdentity:
    """Whole-job: digests, counters and (mem-mode) per-op ledger work
    match the golden cells on the paper applications."""

    @pytest.mark.parametrize("app_name", PAPER_APPS)
    def test_apps_identical_serial_mem(self, golden, app_name):
        assert job_cell(app_job(app_name)) == golden[f"{app_name}-baseline"]

    @pytest.mark.parametrize("app_name", PAPER_APPS)
    def test_apps_identical_combined(self, golden, app_name):
        """freqbuf + spill-matcher: combining at the hash buffer too."""
        assert job_cell(app_job(app_name, "combined")) == golden[f"{app_name}-combined"]

    def test_identical_with_compression_and_freqbuf(self, golden):
        job = app_job(
            "wordcount", **{Keys.SPILL_COMPRESSION: "zlib", Keys.FREQBUF_ENABLED: True}
        )
        assert job_cell(job) == golden["wordcount-zlib-freqbuf"]

    def test_identical_process_backend(self, golden):
        assert job_cell(app_job("wordcount", backend="process")) == (
            golden["wordcount-process"]
        )

    @pytest.mark.network
    def test_identical_net_shuffle(self, golden):
        job = app_job("wordcount", **{Keys.SHUFFLE_MODE: "net"})
        assert job_cell(job, ledger=False) == golden["wordcount-net"]

    def test_exact_comparison_counting_identical(self, golden, tiny_text):
        job = make_wordcount_job(tiny_text, {Keys.EXACT_COMPARISON_COUNTING: True})
        assert job_cell(job) == golden["wordcount-exact"]


def write_golden(path: str = GOLDEN_PATH) -> None:
    """Record every cell from the current code into *path*."""
    cells = {**_unit_cells(), **_job_cells()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(cells, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    write_golden()

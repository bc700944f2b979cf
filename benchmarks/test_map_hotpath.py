"""Map hot path: proven raw-bytes fold vs an opaque combiner.

Two claims from the packed-collector, raw-fold and in-node-combining
work, measured and written to ``BENCH_map.json``:

* **Throughput** — records/sec through the collect → sort → combine →
  spill → merge path of the one packed collector, driven with a
  pre-tokenized Zipf-ish word stream so the measurement isolates the
  collector rather than the user mapper.  A sum combiner the engine can
  prove (folded on raw bytes) must clear ``THROUGHPUT_BAR`` times the
  same sum written so the proof fails (run through ``combine()``).
  ``speedup`` is the median over trials of the paired rate ratio.
* **Shuffle bytes** — in-node combining must cut the bytes reducers
  fetch *beyond* what per-task frequency buffering already saves:
  wordcount with freqbuf only vs freqbuf + node-combine.

Both runs assert byte-identical outputs first — a fast wrong path or a
lossy byte saving would make the numbers meaningless.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

from repro.config import Keys
from repro.engine.api import HashPartitioner
from repro.engine.api import Combiner
from repro.engine.collector import StandardCollector
from repro.engine.combiner import CombinerRunner
from repro.engine.costmodel import DEFAULT_COST_MODEL, UserCodeCosts
from repro.engine.counters import Counter, Counters
from repro.engine.instrumentation import Ledger, TaskInstruments
from repro.engine.runner import LocalJobRunner
from repro.engine.spillpolicy import StaticSpillPolicy
from repro.experiments.common import build_app
from repro.io.blockdisk import LocalDisk
from repro.io.spillfile import read_segment
from repro.serde.numeric import VIntWritable
from repro.serde.text import Text
from tests.conftest import SumCombiner

OUTPUT_FILE = "BENCH_map.json"
NUM_RECORDS = 150_000
DISTINCT_KEYS = 997
TRIALS = 5
THROUGHPUT_BAR = 1.05


class OpaqueSumCombiner(Combiner):
    """SumCombiner's fold in two statements: the prover needs the single
    ``emit(key, W(agg(...)))`` shape, so this one runs as user code."""

    def combine(self, key, values, emit):
        total = sum(v.value for v in values)
        emit(key, VIntWritable(total))


COMBINERS = {"opaque": OpaqueSumCombiner, "proven": SumCombiner}


def _make_collector(mode: str):
    counters = Counters()
    runner = CombinerRunner(COMBINERS[mode](), Text, VIntWritable, UserCodeCosts(), counters)
    assert (runner.fold is not None) == (mode == "proven")
    return StandardCollector(
        task_id="bench",
        disk=LocalDisk(),
        num_partitions=4,
        partitioner=HashPartitioner(),
        policy=StaticSpillPolicy(0.8),
        capacity_bytes=1 << 20,
        cost_model=DEFAULT_COST_MODEL,
        instruments=TaskInstruments(Ledger()),
        counters=counters,
        combiner_runner=runner,
    )


def _collect_run(mode: str, keys) -> tuple[float, str]:
    collector = _make_collector(mode)
    one = VIntWritable(1)
    collect = collector.collect
    start = time.perf_counter()
    for key in keys:
        collect(key, one)
    index = collector.flush()
    rate = NUM_RECORDS / (time.perf_counter() - start)
    digest = hashlib.sha256()
    for partition in range(collector.num_partitions):
        for key_bytes, value_bytes in read_segment(collector.disk, index, partition):
            digest.update(key_bytes + b"\0" + value_bytes + b"\0")
    return rate, digest.hexdigest()


def measure_throughput() -> dict:
    # Zipf-ish repetition: key i%997 with quadratic skew toward low ids.
    words = [f"word{(i * i) % DISTINCT_KEYS}" for i in range(NUM_RECORDS)]
    rates: dict[str, list[float]] = {"opaque": [], "proven": []}
    ratios = []
    digests = {}
    for trial in range(TRIALS):
        # Each trial times both paths back to back, in alternating
        # order, so host speed drift cancels in the paired ratio.
        order = ("opaque", "proven") if trial % 2 == 0 else ("proven", "opaque")
        for mode in order:
            rate, digests[mode] = _collect_run(mode, [Text(word) for word in words])
            rates[mode].append(rate)
        ratios.append(rates["proven"][-1] / rates["opaque"][-1])
    assert digests["proven"] == digests["opaque"], "combine paths diverged"
    return {
        "records": NUM_RECORDS,
        "trials": TRIALS,
        "opaque_combiner_records_per_sec": round(max(rates["opaque"])),
        "proven_fold_records_per_sec": round(max(rates["proven"])),
        "speedup": round(statistics.median(ratios), 3),
    }


def _shuffle_bytes(node_combine: bool) -> tuple[int, str]:
    app = build_app(
        "wordcount",
        "freq",
        scale=0.05,
        num_splits=4,
        extra_conf={
            Keys.NODE_COMBINE: node_combine,
            Keys.FREQBUF_SHARE_ACROSS_TASKS: False,
            Keys.SPILL_BUFFER_BYTES: 32 * 1024,
        },
    )
    result = LocalJobRunner().run(app.job)
    return result.counters.get(Counter.SHUFFLE_BYTES), result.output_digest()


def measure_shuffle_reduction() -> dict:
    freq_only, digest_off = _shuffle_bytes(node_combine=False)
    with_node, digest_on = _shuffle_bytes(node_combine=True)
    assert digest_on == digest_off, "node combining changed the job output"
    assert freq_only > 0
    return {
        "freqbuf_only_shuffle_bytes": freq_only,
        "plus_node_combine_shuffle_bytes": with_node,
        "bytes_saved": freq_only - with_node,
        "reduction_percent": round(100.0 * (freq_only - with_node) / freq_only, 2),
    }


def test_map_hotpath() -> None:
    throughput = measure_throughput()
    shuffle = measure_shuffle_reduction()
    report = {"throughput": throughput, "shuffle": shuffle}
    with open(OUTPUT_FILE, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print()
    print(json.dumps(report, indent=2))

    assert throughput["speedup"] >= THROUGHPUT_BAR, (
        f"proven fold only {throughput['speedup']}x the opaque combiner "
        f"(bar: {THROUGHPUT_BAR}x)"
    )
    assert shuffle["bytes_saved"] > 0, (
        "node combining saved no shuffle bytes beyond frequency buffering"
    )

"""Dataflow pipeline overhead and result-cache savings.

Runs the chained textindex pipeline cold (empty cache — every stage
executes its job) and warm (same runner — every stage is satisfied from
the content-hash cache) on each backend, writing ``BENCH_dag.json``
with per-stage structure and the cold/warm wall times.

The headline claim is the cache's reason to exist: a warm rerun of an
unchanged pipeline must be drastically cheaper than the cold run,
because no MapReduce job runs at all — the scheduler only verifies
input digests and restores datasets.
"""

from __future__ import annotations

import json
import time

from repro.apps.pipelines import build_textindex
from repro.config import Keys
from repro.dag import PipelineRunner
from repro.engine.counters import Counter

BACKENDS = ("serial", "process")
SCALE = 0.05
OUTPUT_FILE = "BENCH_dag.json"


def _timed_run(runner: PipelineRunner):
    start = time.perf_counter()
    result = runner.run(build_textindex(scale=SCALE))
    return time.perf_counter() - start, result


def test_pipeline_cold_vs_warm_cache() -> None:
    report: dict = {"pipeline": "textindex", "scale": SCALE, "backends": {}}
    for backend in BACKENDS:
        runner = PipelineRunner(
            stage_conf={Keys.EXEC_BACKEND: backend, Keys.EXEC_WORKERS: 4}
        )
        cold_seconds, cold = _timed_run(runner)
        warm_seconds, warm = _timed_run(runner)

        assert cold.ok and warm.ok
        stage_count = len(cold.stages)
        assert cold.counters.get(Counter.PIPELINE_CACHE_MISSES) == stage_count
        assert warm.counters.get(Counter.PIPELINE_CACHE_HITS) == stage_count
        assert warm.datasets == cold.datasets, (
            f"warm rerun changed the {backend} pipeline's output"
        )

        report["backends"][backend] = {
            "stages": stage_count,
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "cache_speedup": round(cold_seconds / max(warm_seconds, 1e-9), 1),
            "handoff_bytes": cold.counters.get(Counter.PIPELINE_HANDOFF_BYTES),
            "stage_seconds": {
                s.stage: round(s.seconds, 4) for s in cold.stages
            },
        }

        # The cache claim: a warm rerun runs zero jobs, so it must be
        # far cheaper.  5x is a very loose floor — in practice it is
        # orders of magnitude — chosen to stay robust on noisy CI boxes.
        assert warm_seconds * 5 < cold_seconds, (
            f"warm cache rerun on {backend} took {warm_seconds:.3f}s "
            f"vs {cold_seconds:.3f}s cold"
        )

    with open(OUTPUT_FILE, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    print()
    print(json.dumps(report, indent=2))

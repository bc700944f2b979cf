"""Per-layer metrics: where the traced run wraps the program, and how a
job's spans and result become the per-layer numbers.

Layers are named after the ``src/repro`` modules.  Every wrapped site is
a public function or method of its layer; the map / combine / reduce
sites are the user classes of the job being run.
"""

from __future__ import annotations

import statistics

from spans import Tracer

#: (layer name, module, function) — module-level functions, patched at
#: every module that imported them.  ``span`` records each call.
FUNCTION_SPANS = (
    ("lint.submit", "repro.engine.runner", "lint_at_submit"),
    ("io.spill_write", "repro.io.spillfile", "write_spill"),
    ("engine.map_task", "repro.exec.base", "run_map_with_retries"),
    ("engine.reduce_task", "repro.exec.base", "run_reduce_with_retries"),
    ("engine.sort", "repro.engine.sorter", "sort_spill"),
    ("shuffle.node_combine", "repro.exec.base", "apply_node_combine"),
    ("shuffle.fetch", "repro.shuffle.fetcher", "fetch_segment"),
)

#: Every name a traced job can report self time under.
LAYER_NAMES = (
    "lint.submit",
    "io.read", "io.spill_write", "io.merge",
    "apps.map", "apps.combine", "apps.reduce",
    "engine.map_task", "engine.collect", "engine.sort", "engine.combine",
    "engine.flush", "engine.reduce_task", "engine.fetch_merge",
    "core.freqbuf.collect", "core.freqbuf.flush",
    "shuffle.node_combine", "shuffle.fetch",
    "exec.worker_task",
)

#: Ledger ops (``repro.engine.instrumentation.Op``) and the traced
#: layers whose self time measures the same work.  The freqbuf
#: collector's self time covers both of its ops, so ``profile`` has no
#: measured column and ``hashbuf`` carries both.  Work nested in a
#: node-combine or reduce span counts under the nested layer.
OP_LAYERS = {
    "read": ("io.read",),
    "map": ("apps.map",),
    "emit": ("engine.collect",),
    "sort": ("engine.sort",),
    "combine": ("engine.combine", "apps.combine"),
    "spill_io": ("io.spill_write",),
    "merge": ("io.merge", "engine.flush"),
    "hashbuf": ("core.freqbuf.collect", "core.freqbuf.flush"),
    "node_combine": ("shuffle.node_combine",),
    "shuffle": ("engine.fetch_merge", "shuffle.fetch"),
    "reduce": ("apps.reduce",),
    "output": ("engine.reduce_task",),
}
MODEL_OPS = (
    "read", "map", "emit", "sort", "combine", "spill_io", "merge", "profile",
    "hashbuf", "node_combine", "shuffle", "reduce", "output",
)
#: Ops whose work is user code; the rest is framework work.
USER_OPS = ("map", "combine", "reduce")

#: Per-layer metrics: name -> (unit, better).  Units ending in
#: ``-placed`` mark values that depend on which worker ran which split
#: (or on fetch timing) on the process backend; every other count
#: repeats exactly for a given seed.
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"{name}_s": ("s", "lower") for name in LAYER_NAMES},
    "io.read_mb": ("MB", "lower"),
    "io.spilled_mb": ("MB-placed", "lower"),
    "engine.combine_in_records": ("count-placed", "lower"),
    "engine.combine_out_records": ("count-placed", "lower"),
    "engine.spills": ("count-placed", "lower"),
    "engine.map_output_records": ("count", "lower"),
    "engine.reduce_input_groups": ("count", "lower"),
    "core.freqbuf.hit_ratio": ("ratio-placed", "higher"),
    "shuffle.node_combine_ratio": ("ratio", "lower"),
    "shuffle.mb": ("MB", "lower"),
    "shuffle.fetches": ("count", "lower"),
    "shuffle.fetch_retries": ("count-placed", "lower"),
    "shuffle.fetch_wait_s": ("s", "lower"),
    "exec.orchestration_s": ("s", "lower"),
    "exec.task_s": ("s", "lower"),
    "exec.task_reexecutions": ("count", "lower"),
    "exec.worker_crashes": ("count", "lower"),
    "job.traced_s": ("s", "lower"),
    "job.unattributed_s": ("s", "lower"),
    "job.unattributed_share": ("ratio", "lower"),
    "trace.overlap_s": ("s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    **{
        f"model.{op}_share": ("ratio", "higher" if op in USER_OPS else "lower")
        for op in MODEL_OPS
    },
    **{
        f"measured.{op}_share": ("ratio", "higher" if op in USER_OPS else "lower")
        for op in OP_LAYERS
    },
    "measured.unmodelled_share": ("ratio", "lower"),
}


def install(tracer: Tracer, job) -> None:
    """Wrap every layer site, including *job*'s own user classes."""
    from repro.core.freqbuf.collector import FrequencyBufferingCollector
    from repro.engine.binarybuffer import BinarySpill
    from repro.engine.collector import StandardCollector
    from repro.engine.combiner import CombinerRunner
    from repro.engine.shuffle import ShuffleService
    from repro.io.merger import merge_and_combine

    # Import every module that binds a wrapped function, so each of its
    # bindings exists to be patched before the first job runs.
    import repro.exec.process  # noqa: F401
    import repro.exec.serial  # noqa: F401
    import repro.exec.workers  # noqa: F401
    import repro.shuffle.nodecombine  # noqa: F401
    import repro.shuffle.service  # noqa: F401

    span, hot = tracer.span, tracer.hot_call
    for name, module, attr in FUNCTION_SPANS:
        tracer.patch_function(module, attr, lambda fn, name=name: span(name, fn))
    # Every caller drains merge_and_combine with list(); the drained
    # wrapper keeps the merge inside its span.
    tracer.patch_function(
        merge_and_combine.__module__, "merge_and_combine",
        lambda fn: tracer.span_drained("io.merge", fn),
    )
    for attr in ("map_entry", "reduce_entry"):
        tracer.patch_function(
            "repro.exec.workers", attr, lambda fn: _dumping(tracer, span("exec.worker_task", fn))
        )
    tracer.patch_method(BinarySpill, "sort", lambda fn: span("engine.sort", fn))
    tracer.patch_method(StandardCollector, "collect", lambda fn: hot("engine.collect", fn))
    tracer.patch_method(StandardCollector, "flush", lambda fn: span("engine.flush", fn))
    tracer.patch_method(
        CombinerRunner, "combine_serialized", lambda fn: hot("engine.combine", fn)
    )
    tracer.patch_method(
        ShuffleService, "fetch_and_merge", lambda fn: span("engine.fetch_merge", fn)
    )
    tracer.patch_method(
        FrequencyBufferingCollector, "collect", lambda fn: hot("core.freqbuf.collect", fn)
    )
    tracer.patch_method(
        FrequencyBufferingCollector, "flush", lambda fn: span("core.freqbuf.flush", fn)
    )
    tracer.patch_method(
        type(job.input_format), "record_reader",
        lambda fn: tracer.hot_iter("io.read", fn),
    )
    tracer.patch_method(type(job.mapper_factory()), "map", lambda fn: hot("apps.map", fn))
    tracer.patch_method(
        type(job.reducer_factory()), "reduce", lambda fn: hot("apps.reduce", fn)
    )
    if job.combiner_factory is not None:
        tracer.patch_method(
            type(job.combiner_factory()), "combine", lambda fn: hot("apps.combine", fn)
        )


def _dumping(tracer: Tracer, fn):
    """Worker entry points: spool the worker's records when a task ends,
    because pool workers exit without running any cleanup."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.dump()

    return wrapper


def result_facts(result, wall_s: float, workers: int) -> dict[str, float]:
    """Per-layer numbers a job's :class:`JobResult` carries without any
    tracing: counters, task wall times, ledger shares."""
    from repro.engine.counters import Counter

    counters = result.counters
    count = counters.get
    hits, misses = count(Counter.FREQBUF_HITS), count(Counter.FREQBUF_MISSES)
    nc_in = count(Counter.NODE_COMBINE_IN_RECORDS)
    task_s = sum(r.wall_seconds for r in result.map_results) + sum(
        r.wall_seconds for r in result.reduce_results
    )
    facts = {
        "io.read_mb": count(Counter.MAP_INPUT_BYTES) / 1e6,
        "io.spilled_mb": count(Counter.SPILLED_BYTES) / 1e6,
        "engine.combine_in_records": count(Counter.COMBINE_INPUT_RECORDS),
        "engine.combine_out_records": count(Counter.COMBINE_OUTPUT_RECORDS),
        "engine.spills": count(Counter.SPILLS),
        "engine.map_output_records": count(Counter.MAP_OUTPUT_RECORDS),
        "engine.reduce_input_groups": count(Counter.REDUCE_INPUT_GROUPS),
        "core.freqbuf.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "shuffle.node_combine_ratio": (
            count(Counter.NODE_COMBINE_OUT_RECORDS) / nc_in if nc_in else 0.0
        ),
        "shuffle.mb": count(Counter.SHUFFLE_BYTES) / 1e6,
        "shuffle.fetches": count(Counter.SHUFFLE_FETCHES),
        "shuffle.fetch_retries": count(Counter.SHUFFLE_FETCH_RETRIES),
        "shuffle.fetch_wait_s": sum(r.fetch_wait_seconds for r in result.reduce_results),
        "exec.orchestration_s": wall_s - task_s / workers,
        "exec.task_s": task_s,
        "exec.task_reexecutions": count(Counter.TASK_REEXECUTIONS),
        "exec.worker_crashes": count(Counter.WORKER_CRASHES),
    }
    work = result.ledger.as_dict()
    total = sum(work.values()) or 1.0
    for op in MODEL_OPS:
        facts[f"model.{op}_share"] = work.get(op, 0.0) / total
    return facts


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def traced_job_facts(spans: list[dict], hot: dict[str, list]) -> dict[str, float]:
    """Per-layer self times of one traced job, its unattributed time and
    the measured share of each ledger op.

    ``job.unattributed_s`` is the time inside the job span that no other
    span of the job covers, in any process.  ``trace.overlap_s`` is the
    sum of every layer's self time plus the unattributed time, minus the
    job span: zero when one thread does all the work (the accounting
    check), and the work that ran in parallel otherwise."""
    job = next(span for span in spans if span["name"] == "job")
    job_s = job["end"] - job["start"]
    self_s = dict.fromkeys(LAYER_NAMES, 0.0)
    for span in spans:
        if span["name"] != "job":
            self_s[span["name"]] += span["self_s"]
    for name, (_calls, seconds) in hot.items():
        self_s[name] += seconds
    unattributed = job_s - _union_seconds([
        (max(span["start"], job["start"]), min(span["end"], job["end"]))
        for span in spans
        if span["name"] != "job"
    ])
    busy = sum(self_s.values()) + unattributed
    facts = {f"{name}_s": seconds for name, seconds in self_s.items()}
    facts.update({
        "job.traced_s": job_s,
        "job.unattributed_s": unattributed,
        "job.unattributed_share": unattributed / job_s,
        "trace.overlap_s": busy - job_s,
    })
    modelled = 0.0
    for op, names in OP_LAYERS.items():
        seconds = sum(self_s[name] for name in names)
        modelled += seconds
        facts[f"measured.{op}_share"] = seconds / busy
    facts["measured.unmodelled_share"] = (busy - modelled) / busy
    return facts


def self_time_table(rows: list[dict[str, float]]) -> str:
    """Median per-job self time of each layer, largest first."""
    medians = {
        name: statistics.median(row[f"{name}_s"] for row in rows) for name in LAYER_NAMES
    }
    medians["(unattributed)"] = statistics.median(row["job.unattributed_s"] for row in rows)
    total = statistics.median(row["job.traced_s"] for row in rows)
    lines = [f"{'layer':<24}{'self s/job':>12}{'share of job':>14}"]
    for name, seconds in sorted(medians.items(), key=lambda item: -item[1]):
        if seconds > 0:
            lines.append(f"{name:<24}{seconds:>12.4f}{seconds / total:>14.1%}")
    lines.append(f"{'job span':<24}{total:>12.4f}")
    return "\n".join(lines)

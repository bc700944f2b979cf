"""Executor interface and the task-attempt machinery all backends share.

An :class:`Executor` runs a whole :class:`~repro.engine.job.JobSpec` and
returns a :class:`~repro.engine.runner.JobResult`.  The backends differ
only in *where* task attempts run — the calling thread
(:mod:`repro.exec.serial`), forked OS processes
(:mod:`repro.exec.process`), or cluster worker daemons
(:mod:`repro.cluster.runtime`) — so the attempt loop
itself (Hadoop's retry-on-user-failure semantics) lives here as plain
functions every backend calls, in-process or inside a worker.

All backends preserve the engine's accounting contract: per-task ledgers
and counters merge into the job totals in task order, so a job's summed
:class:`~repro.engine.instrumentation.Ledger` is identical no matter
which backend executed it (modulo the live pipeline, which measures wall
clock instead of modelled work).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from typing import Callable

from ..config import Keys
from ..engine.counters import Counter, Counters
from ..engine.instrumentation import Ledger, TaskInstruments
from ..engine.job import JobSpec
from ..engine.maptask import MapTaskResult, MapTaskRunner
from ..engine.reducetask import ReduceTaskResult, ReduceTaskRunner
from ..engine.runner import JobResult, build_collector
from ..errors import DiskError, ExecBackendError, JobFailedError, SerdeError, UserCodeError
from ..faults.plan import FaultPlan
from ..faults.runtime import task_scope, worker_fault
from ..io.blockdisk import LocalDisk
from ..io.linereader import FileSplit

#: Errors that burn one task attempt and retry with a fresh attempt:
#: user code blew up (Hadoop's classic case), a spill read failed its
#: CRC check, or local disk failed mid-write.  Shuffle errors are *not*
#: here — the fetcher owns that retry loop (per-segment, with backoff),
#: and a fetch that exhausts it is a cluster problem a fresh reduce
#: attempt against the same servers would only repeat.
TRANSIENT_TASK_ERRORS = (UserCodeError, SerdeError, DiskError)


def resolve_workers(requested: int) -> int:
    """Map the ``repro.exec.workers`` setting to a concrete count
    (0 means one worker per CPU, Hadoop's slots-per-node analogue)."""
    if requested < 0:
        raise ExecBackendError(f"worker count must be >= 0, got {requested}")
    if requested == 0:
        return os.cpu_count() or 1
    return requested


def map_task_id(job: JobSpec, index: int) -> str:
    return f"{job.name}.m{index:04d}"


def reduce_task_id(job: JobSpec, partition: int) -> str:
    return f"{job.name}.r{partition:04d}"


def run_map_with_retries(
    job: JobSpec,
    index: int,
    split: FileSplit,
    host: str,
    shared_state: dict | None = None,
    disk_factory: Callable[[str], LocalDisk] | None = None,
    attempts_out: dict[str, int] | None = None,
    attempt_offset: int = 0,
) -> tuple[MapTaskResult, int]:
    """Run one map task with Hadoop's task-attempt semantics.

    Each attempt gets a fresh mapper, disk, collector, ledger, and
    counter set; a :data:`TRANSIENT_TASK_ERRORS` exception burns the
    attempt and retries, any other exception propagates immediately.
    Returns the result and the cumulative number of attempts consumed.
    *attempts_out*, when given, is kept current attempt-by-attempt so
    callers observe the count even when the task ultimately fails the
    job.  *attempt_offset* is the number of attempts already consumed
    elsewhere (a crashed worker's lost attempts, counted by the pool),
    so a rescheduled task keeps one cumulative attempt budget.
    """
    task_id = map_task_id(job, index)
    max_attempts = job.conf.get_positive_int(Keys.TASK_MAX_ATTEMPTS)
    last_error: Exception | None = None
    for attempt in range(attempt_offset, max_attempts):
        if attempts_out is not None:
            attempts_out[task_id] = attempt + 1
        if disk_factory is not None:
            disk = disk_factory(task_id)
        else:
            disk = LocalDisk(f"{task_id}.disk")
        instruments = TaskInstruments(Ledger())
        counters = Counters()
        state = shared_state if shared_state is not None else {}
        collector = build_collector(job, task_id, disk, instruments, counters, state)
        runner = MapTaskRunner(
            job, split, task_id, disk, collector, instruments, counters, host
        )
        try:
            with task_scope(task_id, attempt + 1):
                worker_fault(task_id, attempt + 1)
                return runner.run(), attempt + 1
        except TRANSIENT_TASK_ERRORS as exc:
            last_error = exc
    raise JobFailedError(
        f"task {task_id} failed {max_attempts} attempts; last error: {last_error}"
    ) from last_error


def run_reduce_with_retries(
    job: JobSpec,
    partition: int,
    map_results: list[MapTaskResult],
    host: str,
    attempts_out: dict[str, int] | None = None,
    attempt_offset: int = 0,
) -> tuple[ReduceTaskResult, int]:
    """Run one reduce task with the same attempt semantics as maps."""
    task_id = reduce_task_id(job, partition)
    max_attempts = job.conf.get_positive_int(Keys.TASK_MAX_ATTEMPTS)
    last_error: Exception | None = None
    for attempt in range(attempt_offset, max_attempts):
        if attempts_out is not None:
            attempts_out[task_id] = attempt + 1
        instruments = TaskInstruments(Ledger())
        counters = Counters()
        runner = ReduceTaskRunner(
            job, partition, map_results, task_id, instruments, counters, host
        )
        try:
            with task_scope(task_id, attempt + 1):
                worker_fault(task_id, attempt + 1)
                return runner.run(), attempt + 1
        except TRANSIENT_TASK_ERRORS as exc:
            last_error = exc
    raise JobFailedError(
        f"task {task_id} failed {max_attempts} attempts; last error: {last_error}"
    ) from last_error


def recovery_counters(job: JobSpec, task_attempts: dict[str, int]) -> Counters:
    """Fault-tolerance accounting derived from attempt counts: every
    attempt beyond a task's first is a re-execution (only *this* job's
    tasks count — runners may share the attempts dict across jobs)."""
    events = Counters()
    prefix = f"{job.name}."
    reexecutions = sum(
        max(0, attempts - 1)
        for task_id, attempts in task_attempts.items()
        if task_id.startswith(prefix)
    )
    events.incr(Counter.TASK_REEXECUTIONS, reexecutions)
    return events


def apply_node_combine(
    job: JobSpec,
    map_results: list[MapTaskResult],
    host: str,
    server=None,
):
    """Run the in-node combine stage, when configured and applicable.

    Groups the finished *map_results* by the host they ran on (falling
    back to the executor's own *host* for results without one) and folds
    each group into one synthetic per-node output
    (:mod:`repro.shuffle.nodecombine`).  Returns ``(fetch_results,
    outcome)``: the results reducers should fetch from, and the stage's
    accounting (``None`` when the stage did not run).  The originals are
    left untouched — they stay in the job result and its ledger sums.

    The stage is skipped when it cannot apply: no combiner declared, a
    map-only run (delta recompute caches the *per-split* map outputs, so
    collapsing them per node would break split-level reuse), or nothing
    to fold.  ``repro.shuffle.node.combine`` itself is gated at submit
    by the static analyzer (fold-like combiners only).

    With a *server* (network shuffle) each synthetic output is
    registered so reducers can fetch it over TCP like any map output.
    """
    conf = job.conf
    if not conf.get_bool(Keys.NODE_COMBINE):
        return map_results, None
    if job.combiner_factory is None or not map_results:
        return map_results, None
    if conf.get_bool(Keys.EXEC_MAP_ONLY):
        return map_results, None
    from ..shuffle.nodecombine import NodeCombiner

    combiner = NodeCombiner(job)
    order: list[str] = []
    groups: dict[str, list[MapTaskResult]] = {}
    for result in map_results:
        result_host = result.host or host
        if result_host not in groups:
            order.append(result_host)
            groups[result_host] = []
        groups[result_host].append(result)

    fetch_results: list[MapTaskResult] = []
    for result_host in order:
        synthetic = combiner.combine_host(result_host, groups[result_host])
        if server is not None:
            server.register(synthetic.task_id, synthetic.output_index, synthetic.disk)
            synthetic.serve_address = server.address
        fetch_results.append(synthetic)
    return fetch_results, combiner.outcome(fetch_results)


def assemble_job_result(
    job: JobSpec,
    map_results: list[MapTaskResult],
    reduce_results: list[ReduceTaskResult],
    shuffle_hosts: list | None = None,
    task_attempts: dict[str, int] | None = None,
    events: Counters | None = None,
    node_combine=None,
) -> JobResult:
    """Merge per-task accounting into a job result, in task order, so
    every backend produces an identical ledger/counter aggregation.

    *task_attempts* (the executor's per-task attempt counts) yields the
    ``TASK_REEXECUTIONS`` counter; *events* carries executor-level
    counters no single task owns (worker crashes, timeouts,
    quarantines).  Neither perturbs the ledger, so fault-free runs stay
    bit-identical across backends.  *node_combine* is the in-node
    combine stage's :class:`~repro.shuffle.nodecombine.
    NodeCombineOutcome`, whose ledger and counters fold into the job
    totals after the per-task sums.
    """
    ledger = Ledger.summed(
        [r.ledger for r in map_results] + [r.ledger for r in reduce_results]
    )
    counters = Counters.summed(
        [r.counters for r in map_results] + [r.counters for r in reduce_results]
    )
    attempts = dict(task_attempts) if task_attempts else {}
    counters.merge(recovery_counters(job, attempts))
    if events is not None:
        counters.merge(events)
    if node_combine is not None:
        ledger.merge(node_combine.ledger)
        counters.merge(node_combine.counters)
    return JobResult(
        job_name=job.name,
        map_results=map_results,
        reduce_results=reduce_results,
        ledger=ledger,
        counters=counters,
        shuffle_hosts=shuffle_hosts or [],
        task_attempts=attempts,
        job_id=job.job_id(),
    )


def materialize_map_result(result: MapTaskResult) -> None:
    """Copy a map task's temp-dir files into an in-memory disk so the
    job result outlives the temp tree, keeping the worker's I/O stats
    (the copy itself is not task work).  Shared by every backend whose
    workers spill to real disk (process pool, cluster daemons)."""
    file_disk = result.disk
    stats = file_disk.stats.snapshot()
    local = LocalDisk(f"{result.task_id}.disk")
    for path in file_disk.list_files():
        with file_disk.open(path) as reader:
            data = reader.read()
        with local.create(path) as writer:
            writer.write(data)
    local.stats = stats
    result.disk = local


def fault_plan_for(job: JobSpec) -> FaultPlan:
    """The job's unified fault plan (``repro.faults.*`` conf keys /
    ``REPRO_FAULT`` env); empty and disabled in normal runs."""
    return FaultPlan.from_conf(job.conf)


def start_shuffle_server(job: JobSpec, host: str):
    """Start this node's shuffle server when the job asks for the real
    network shuffle (``repro.shuffle.mode = net``); returns ``None`` in
    the default ``mem`` mode.  The caller owns the server's lifetime and
    must ``stop()`` it (the executors do so in a ``finally``)."""
    mode = job.conf.get_str(Keys.SHUFFLE_MODE)
    if mode == "mem":
        return None
    if mode != "net":
        from ..errors import ConfigError

        raise ConfigError(
            f"{Keys.SHUFFLE_MODE}={mode!r} is not a shuffle mode; use 'mem' or 'net'"
        )
    from ..shuffle.server import ShuffleServer

    # Shuffle faults need no wiring here: the server consults the
    # ambient injector (`shuffle.*` rules of the job's fault plan),
    # which every backend installs before any reducer fetches.
    return ShuffleServer(host).start()


def job_splits(job: JobSpec) -> list[FileSplit]:
    splits = job.input_format.splits()
    if not splits:
        raise ValueError(f"job {job.name!r} has no input splits")
    return splits


class Executor(ABC):
    """Runs every task of a job on some substrate and merges accounting.

    Attributes
    ----------
    workers:
        Resolved worker count (``repro.exec.workers``; 0 = one per CPU).
        The serial backend ignores it.
    task_attempts:
        ``task_id -> attempts consumed``, mirrored by
        :class:`~repro.engine.runner.LocalJobRunner` for compatibility.
    """

    name: str = "?"

    def __init__(self, workers: int = 0, host: str = "localhost") -> None:
        self.workers = resolve_workers(workers)
        self.host = host
        self.task_attempts: dict[str, int] = {}

    @abstractmethod
    def run(self, job: JobSpec) -> JobResult:
        """Execute *job* to completion and return its merged result."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers}, host={self.host!r})"

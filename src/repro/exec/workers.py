"""Worker-process entry points for the process backend.

The job is handed to workers through a context registry populated
*before* the pool is created under the ``fork`` start method: forked
children inherit the parent's memory, so :class:`~repro.engine.job.
JobSpec` objects with unpicklable pieces (the apps build mappers from
lambdas and closures) never cross a pickle boundary.  Only task *results* are pickled back —
ledgers, counters, spill indexes, and a :class:`~repro.exec.diskio.
FileDisk` handle pointing at the spill files the worker left on real
disk for the parent and the reduce workers to read.

Entry points return ``(task_id, attempts, result, error)`` rather than
raising, so the parent can record attempt counts before propagating the
failure in task order.  They run under the shared worker-side routine
of :mod:`repro.exec.attempts` (:func:`task_handlers`), over the process
backend's pipes and the cluster daemons' sockets alike.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass

from ..engine.job import JobSpec
from ..engine.maptask import MapTaskResult
from ..errors import JobFailedError
from .attempts import Handler
from .base import map_task_id, reduce_task_id, run_map_with_retries, run_reduce_with_retries
from .diskio import FileDisk


@dataclass
class WorkerContext:
    """Everything a worker needs, inherited across fork."""

    job: JobSpec
    tmp_root: str
    host: str
    #: The parent's shuffle server, when ``repro.shuffle.mode = net``:
    #: map workers register their finished output with it over TCP and
    #: reducers fetch from it.
    shuffle_address: tuple[str, int] | None = None
    #: The cluster backend's staged input DFS: worker daemons read their
    #: job input through it (preferring the local replica) instead of
    #: the parent's in-memory bytes.  ``None`` for the process backend.
    dfs: object | None = None


# Contexts are registered by id, not held in a single slot: concurrent
# process executors in one parent (fan-out pipeline stages) each push
# their own entry, and a worker forked at *any* moment — including a
# crash-replacement forked mid-way through another stage's run — still
# resolves its own executor's context by id.
_CTX_LOCK = threading.Lock()
_CONTEXTS: dict[int, WorkerContext] = {}
_NEXT_CTX_ID = itertools.count(1)


def push_context(
    job: JobSpec,
    tmp_root: str,
    host: str,
    shuffle_address: tuple[str, int] | None = None,
    dfs: object | None = None,
) -> int:
    ctx = WorkerContext(
        job=job, tmp_root=tmp_root, host=host, shuffle_address=shuffle_address, dfs=dfs
    )
    with _CTX_LOCK:
        ctx_id = next(_NEXT_CTX_ID)
        _CONTEXTS[ctx_id] = ctx
    return ctx_id


def pop_context(ctx_id: int) -> None:
    with _CTX_LOCK:
        _CONTEXTS.pop(ctx_id, None)


def _context(ctx_id: int) -> WorkerContext:
    try:
        return _CONTEXTS[ctx_id]
    except KeyError:
        raise RuntimeError(
            f"worker context {ctx_id} not registered; process-backend entry "
            "points must run in a pool forked after push_context()"
        ) from None


def worker_context(ctx_id: int) -> WorkerContext:
    """Public accessor for daemons outside this module (the cluster
    runtime's ``workerd``) that inherit the registry across fork."""
    return _context(ctx_id)


def map_entry(index: int, attempt_offset: int = 0, ctx_id: int = 0):
    """Run map task *index* in this worker process.  *attempt_offset*
    is the number of attempts this task already consumed in workers
    that died running it (threaded through by the crash-tolerant pool
    so the cumulative budget survives reschedules)."""
    ctx = _context(ctx_id)
    job = ctx.job
    task_id = map_task_id(job, index)
    # Splits are recomputed in the child (deterministic from the job's
    # input format) so only the index crosses the process boundary.
    split = job.input_format.splits()[index]
    attempt_seq = itertools.count(attempt_offset)

    def disk_factory(tid: str) -> FileDisk:
        # A fresh directory per attempt mirrors LocalDisk's
        # fresh-instance-per-attempt semantics.
        root = os.path.join(ctx.tmp_root, f"{tid}.attempt{next(attempt_seq)}")
        return FileDisk(root, f"{tid}.disk")

    attempts_seen: dict[str, int] = {}
    try:
        result, attempts = run_map_with_retries(
            job,
            index,
            split,
            ctx.host,
            disk_factory=disk_factory,
            attempts_out=attempts_seen,
            attempt_offset=attempt_offset,
        )
        if ctx.shuffle_address is not None:
            # Announce the finished output to this node's shuffle server
            # over the wire; the server reads the worker's spill files
            # itself when reducers ask for segments.
            from ..shuffle.fetcher import register_output

            register_output(
                ctx.shuffle_address,
                task_id,
                result.disk.root,
                result.disk.name,
                result.output_index,
            )
            result.serve_address = ctx.shuffle_address
        return task_id, attempts, result, None
    except JobFailedError as exc:
        return task_id, attempts_seen.get(task_id, 0), None, exc


def reduce_entry(
    work: tuple[int, list[MapTaskResult]], attempt_offset: int = 0, ctx_id: int = 0
):
    """Run one reduce partition against pickled map results."""
    ctx = _context(ctx_id)
    job = ctx.job
    partition, map_results = work
    task_id = reduce_task_id(job, partition)
    attempts_seen: dict[str, int] = {}
    try:
        result, attempts = run_reduce_with_retries(
            job,
            partition,
            map_results,
            ctx.host,
            attempts_out=attempts_seen,
            attempt_offset=attempt_offset,
        )
        return task_id, attempts, result, None
    except JobFailedError as exc:
        return task_id, attempts_seen.get(task_id, 0), None, exc


def task_handlers(ctx_id: int) -> dict[str, Handler]:
    """The map and reduce handlers of a worker pinned to context
    *ctx_id* — what pool workers and cluster daemons hand to
    :func:`~repro.exec.attempts.run_attempt`.  Pinning keeps replacement
    workers forked while other executors are live in the same parent on
    their own job's context.  The entry points are looked up per call,
    so wrappers installed on them after import still apply."""
    return {
        "map": lambda index, offset: map_entry(index, offset, ctx_id=ctx_id),
        "reduce": lambda work, offset: reduce_entry(work, offset, ctx_id=ctx_id),
    }

"""The process backend: task attempts in real OS worker processes.

Map tasks fan out over a crash-tolerant fork pool
(:mod:`repro.exec.pool`), spill to real temp disk through
:class:`~repro.exec.diskio.FileDisk`, and ship their results (ledger,
counters, spill index, disk handle) back by pickle; reduce tasks then
fan out over the same pool, each reading its shuffle partition straight
from the files the map workers wrote.  This is the backend that
actually scales CPU-bound map work across cores — and the one that has
to survive workers dying under it: a worker killed mid-task (OOM,
segfault, injected ``worker.kill``) costs one task attempt, not the
job; the lost attempt is rescheduled on the survivors under the shared
``repro.task.max.attempts`` budget, and a poison task that keeps
killing workers is quarantined with a task-attributed
:class:`~repro.errors.JobFailedError` — the task-attempt lifecycle of
:mod:`repro.exec.attempts`, which the cluster master applies too.

The pool uses the ``fork`` start method deliberately: application specs
are built from closures and lambdas that cannot pickle, so the job is
staged in :mod:`repro.exec.workers`' context registry and inherited by
the forked children instead of being sent to them (each worker is
pinned to its executor's context id, so concurrent executors in one
parent never cross wires).  The job's fault plan
(if any) is installed in the parent *before* the fork for the same
reason — workers inherit the armed injector.

After the reduces finish, every map output is *materialized* — copied
from its temp directory into an in-memory
:class:`~repro.io.blockdisk.LocalDisk` (preserving the worker's disk
stats) — and the temp tree is removed, so the returned
:class:`~repro.engine.runner.JobResult` is as self-contained as a
serial run's.
"""

from __future__ import annotations

import multiprocessing
import shutil
import tempfile

from ..config import Keys
from ..engine.counters import Counters
from ..engine.job import JobSpec
from ..engine.runner import JobResult
from ..errors import ExecBackendError
from ..faults.runtime import installed
from . import workers
from .base import (
    Executor,
    apply_node_combine,
    assemble_job_result,
    fault_plan_for,
    job_splits,
    map_task_id,
    materialize_map_result,
    reduce_task_id,
    start_shuffle_server,
)
from .attempts import PoolTask
from .pool import CrashTolerantPool


class ProcessExecutor(Executor):
    """Runs task attempts in forked worker processes."""

    name = "process"

    def run(self, job: JobSpec) -> JobResult:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError as exc:
            raise ExecBackendError(
                "the process backend requires the 'fork' start method, "
                "which this platform does not provide"
            ) from exc

        splits = job_splits(job)
        tmp_root = tempfile.mkdtemp(prefix=f"repro-exec-{job.name}-")
        # The shuffle server (net mode) lives in the parent: map workers
        # register their FileDisk outputs with it over TCP, reduce
        # workers fetch segments from it over TCP.
        server = start_shuffle_server(job, self.host)
        shuffle_hosts = []
        events = Counters()
        ctx_id = workers.push_context(
            job, tmp_root, self.host,
            shuffle_address=server.address if server is not None else None,
        )
        try:
            # Installed before the pool forks so workers inherit the
            # armed injector along with the job context.  Workers are
            # pinned to this executor's ctx_id: replacements forked
            # while a concurrent executor is live in the same parent
            # still resolve *this* job's context from the registry.
            with installed(fault_plan_for(job)):
                with CrashTolerantPool(
                    ctx=ctx,
                    workers=self.workers,
                    handlers=workers.task_handlers(ctx_id),
                    max_attempts=job.conf.get_positive_int(Keys.TASK_MAX_ATTEMPTS),
                    task_timeout=job.conf.get_float(Keys.TASK_TIMEOUT),
                    events=events,
                    attempts_seen=self.task_attempts,
                ) as pool:
                    map_results = pool.run(
                        [
                            PoolTask(key=map_task_id(job, i), kind="map", payload=i)
                            for i in range(len(splits))
                        ]
                    )
                    # The node-combine stage runs in the parent: it reads
                    # the workers' temp-disk outputs and (net mode)
                    # registers its synthetic outputs with the parent's
                    # shuffle server directly.
                    fetch_results, node_combine = apply_node_combine(
                        job, map_results, self.host, server=server
                    )
                    reduce_results = []
                    if not job.conf.get_bool(Keys.EXEC_MAP_ONLY):
                        reduce_results = pool.run(
                            [
                                PoolTask(
                                    key=reduce_task_id(job, p),
                                    kind="reduce",
                                    payload=(p, fetch_results),
                                )
                                for p in range(job.num_reducers)
                            ]
                        )
            for result in map_results:
                materialize_map_result(result)
        finally:
            workers.pop_context(ctx_id)
            if server is not None:
                # Stop serving before the spill files vanish with tmp_root.
                server.stop()
                shuffle_hosts.append(server.snapshot())
            shutil.rmtree(tmp_root, ignore_errors=True)

        return assemble_job_result(
            job,
            map_results,
            reduce_results,
            shuffle_hosts=shuffle_hosts,
            task_attempts=self.task_attempts,
            events=events,
            node_combine=node_combine,
        )

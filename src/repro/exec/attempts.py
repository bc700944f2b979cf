"""The task-attempt lifecycle every multi-process runtime shares.

Hadoop retries a lost or failed attempt under one
``mapred.map.max.attempts`` budget; here that budget is
``repro.task.max.attempts``, and its rules live in this module once.
The process backend's :class:`~repro.exec.pool.CrashTolerantPool`
(pipes + process sentinels), the ``serve`` warm leases built on that
pool, and the cluster :class:`~repro.cluster.runtime.master.Master`
(TCP + heartbeats) differ in how they ship attempts and detect death;
all of them call into here for:

* the task record (:class:`PoolTask`) and its one "retry as attempt N"
  constructor (:meth:`PoolTask.retry`);
* the lost-attempt rule (:func:`lose_attempt`): a worker died running a
  task, so count the crash, record the consumed attempt, and requeue the
  task or — budget spent — quarantine it as a poison task;
* the outcome check (:func:`check_outcomes`): record attempt counts and
  fail on the first failed task in task order;
* the worker side (:func:`run_attempt`): run one
  ``(key, kind, payload, attempt_offset)`` message through per-kind
  handlers and reply with its ``(task_id, attempts, result, error)``
  outcome, never raising and never losing a result to pickling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable

from ..engine.counters import Counter, Counters
from ..errors import ExecBackendError, JobFailedError, ReproError

#: A worker-side handler: ``(payload, attempt_offset)`` ->
#: ``(task_id, attempts, result, error)``.
Handler = Callable[[Any, int], tuple]


@dataclass
class PoolTask:
    """One task to run in some worker, with its crash history."""

    key: str  # task id, for attribution
    kind: str  # "map" | "reduce" | "job" (a whole serve submission)
    payload: Any  # map: split index; reduce: partition (+ map results)
    attempt_offset: int = 0  # attempts already consumed (crashed ones)
    crashes: int = 0  # workers this task has killed so far
    preferred_hosts: tuple[str, ...] = ()  # data-local placement hints

    def retry(self, attempt_offset: int) -> "PoolTask":
        """This task again, as its attempt ``attempt_offset + 1``."""
        return replace(self, attempt_offset=attempt_offset)


def record_attempts(attempts_seen: dict[str, int], task_id: str, attempts: int) -> None:
    """Keep the highest attempt count reported for *task_id*."""
    if attempts:
        attempts_seen[task_id] = max(attempts_seen.get(task_id, 0), attempts)


def lose_attempt(
    task: PoolTask,
    pending: list[PoolTask],
    outcomes: dict[str, tuple],
    max_attempts: int,
    events: Counters,
    attempts_seen: dict[str, int],
    carried: bool = False,
) -> None:
    """A worker died running *task*: count the crash and the attempt it
    consumed, then requeue the task at the head of *pending* or, once
    the budget is spent, quarantine it into *outcomes*.  *carried* means
    a sibling attempt is still running the task, so it is neither
    requeued nor quarantined."""
    events.incr(Counter.WORKER_CRASHES)
    task.crashes += 1
    consumed = task.attempt_offset + 1  # the attempt that died
    record_attempts(attempts_seen, task.key, consumed)
    if carried:
        return
    if consumed >= max_attempts:
        events.incr(Counter.TASKS_QUARANTINED)
        error = JobFailedError(
            f"task {task.key} quarantined after {task.crashes} worker "
            f"crash(es), {consumed} attempt(s) consumed: every worker "
            "that ran it died, so it is presumed poison"
        )
        outcomes[task.key] = (task.key, consumed, None, error)
    else:
        pending.insert(0, task.retry(consumed))


def check_outcomes(outcomes: Iterable[tuple], attempts_seen: dict[str, int]) -> list:
    """Record every outcome's attempt count, then return the results or
    fail on the first failed task in task order (the serial backend's
    failure order).  Framework errors re-raise with their causal type;
    anything opaque becomes a :class:`~repro.errors.JobFailedError`
    naming the task and its attempt count."""
    outcomes = list(outcomes)
    for task_id, attempts, _result, _error in outcomes:
        record_attempts(attempts_seen, task_id, attempts)
    results = []
    for task_id, attempts, result, error in outcomes:
        if error is not None:
            if isinstance(error, ReproError):
                raise error
            raise JobFailedError(
                f"task {task_id} failed in a worker process after "
                f"{max(attempts, 1)} attempt(s): {error!r}"
            ) from error
        results.append(result)
    return results


def run_attempt(
    message: tuple,
    handlers: dict[str, Handler],
    reply: Callable[[tuple], None],
    error_type: type[ReproError] = ExecBackendError,
) -> None:
    """Run one ``(key, kind, payload, attempt_offset)`` message in this
    worker and *reply* with its outcome.

    Every error becomes an outcome: framework errors ship whole so the
    parent re-raises the causal type, anything else becomes an
    *error_type* naming the task.  An outcome that will not pickle
    degrades to an *error_type* outcome too (the attempt count still
    reaches the parent); both transports pickle before writing, so a
    failed reply leaves the channel clean."""
    key, kind, payload, attempt_offset = message
    try:
        outcome = handlers[kind](payload, attempt_offset)
    except ReproError as exc:
        outcome = (key, 0, None, exc)
    except BaseException as exc:  # noqa: BLE001 - worker must not die on user junk
        outcome = (key, 0, None, error_type(f"worker failed running {key}: {exc!r}"))
    try:
        reply(outcome)
    except Exception as exc:  # noqa: BLE001 - pickling can fail arbitrarily
        reply((key, outcome[1], None, error_type(f"result of {key} is unpicklable: {exc!r}")))

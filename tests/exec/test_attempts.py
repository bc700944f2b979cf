"""The shared task-attempt lifecycle, unit by unit.

The process pool, the serve leases and the cluster master all call
these rules; the end-to-end fault suites (``tests/faults``) cover them
through each runtime.  Here each piece runs alone: the worker-side
routine over a real :func:`multiprocessing.Pipe`, the lost-attempt rule
and the outcome check against plain task records.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.engine.counters import Counter, Counters
from repro.errors import ExecBackendError, JobFailedError, ServeError, ShuffleError
from repro.exec.attempts import PoolTask, check_outcomes, lose_attempt, run_attempt


def run_over_pipe(message: tuple, handlers: dict, **kwargs) -> tuple:
    parent, child = multiprocessing.Pipe(duplex=True)
    try:
        run_attempt(message, handlers, child.send, **kwargs)
        return parent.recv()
    finally:
        parent.close()
        child.close()


def test_result_comes_back_whole() -> None:
    handlers = {"map": lambda index, offset: ("t.m0000", offset + 1, index * 2, None)}
    outcome = run_over_pipe(("t.m0000", "map", 7, 1), handlers)
    assert outcome == ("t.m0000", 2, 14, None)


def test_unpicklable_result_becomes_a_typed_error_naming_the_task() -> None:
    lock = threading.Lock()  # cannot pickle
    handlers = {"reduce": lambda work, offset: ("t.r0001", 3, lock, None)}
    task_id, attempts, result, error = run_over_pipe(("t.r0001", "reduce", None, 0), handlers)
    assert (task_id, attempts, result) == ("t.r0001", 3, None)
    assert isinstance(error, ExecBackendError)
    assert str(error).startswith("result of t.r0001 is unpicklable")


def test_opaque_exception_becomes_a_typed_error_naming_the_task() -> None:
    def boom(payload, offset):
        raise ValueError("bad split")

    task_id, attempts, result, error = run_over_pipe(("t.m0002", "map", 0, 0), {"map": boom})
    assert (task_id, attempts, result) == ("t.m0002", 0, None)
    assert isinstance(error, ExecBackendError)
    assert "t.m0002" in str(error) and "bad split" in str(error)


def test_error_type_is_the_runtimes_and_framework_errors_ship_whole() -> None:
    def boom(payload, offset):
        raise RuntimeError("nope")

    def typed(payload, offset):
        raise ShuffleError("fetch budget spent")

    *_, error = run_over_pipe(("j1", "job", None, 0), {"job": boom}, error_type=ServeError)
    assert type(error) is ServeError and "j1" in str(error)
    *_, error = run_over_pipe(("j1", "job", None, 0), {"job": typed}, error_type=ServeError)
    assert type(error) is ShuffleError


def lose(task: PoolTask, max_attempts: int = 3, carried: bool = False):
    pending: list[PoolTask] = []
    outcomes: dict[str, tuple] = {}
    events = Counters()
    seen: dict[str, int] = {}
    lose_attempt(task, pending, outcomes, max_attempts, events, seen, carried=carried)
    return pending, outcomes, events, seen


def test_lost_attempt_requeues_as_the_next_attempt() -> None:
    task = PoolTask(key="t.m0000", kind="map", payload=0, preferred_hosts=("node01",))
    pending, outcomes, events, seen = lose(task)
    assert pending == [
        PoolTask(key="t.m0000", kind="map", payload=0, attempt_offset=1, crashes=1,
                 preferred_hosts=("node01",))
    ]
    assert outcomes == {} and seen == {"t.m0000": 1}
    assert events.get(Counter.WORKER_CRASHES) == 1
    assert events.get(Counter.TASKS_QUARANTINED) == 0


def test_lost_last_attempt_quarantines() -> None:
    task = PoolTask(key="t.m0000", kind="map", payload=0, attempt_offset=2, crashes=2)
    pending, outcomes, events, seen = lose(task)
    assert pending == [] and seen == {"t.m0000": 3}
    task_id, attempts, result, error = outcomes["t.m0000"]
    assert (task_id, attempts, result) == ("t.m0000", 3, None)
    assert str(error) == (
        "task t.m0000 quarantined after 3 worker crash(es), 3 attempt(s) "
        "consumed: every worker that ran it died, so it is presumed poison"
    )
    assert events.get(Counter.TASKS_QUARANTINED) == 1


def test_carried_attempt_is_counted_but_neither_requeued_nor_quarantined() -> None:
    task = PoolTask(key="t.m0000", kind="map", payload=0, attempt_offset=2)
    pending, outcomes, events, seen = lose(task, carried=True)
    assert pending == [] and outcomes == {} and seen == {"t.m0000": 3}
    assert events.get(Counter.WORKER_CRASHES) == 1


def test_check_outcomes_records_every_count_then_fails_in_task_order() -> None:
    seen = {"a": 5}
    first = JobFailedError("first")
    outcomes = [("a", 2, "ra", None), ("b", 1, None, first), ("c", 4, None, ValueError("x"))]
    with pytest.raises(JobFailedError, match="first"):
        check_outcomes(outcomes, seen)
    assert seen == {"a": 5, "b": 1, "c": 4}
    with pytest.raises(JobFailedError, match=r"task c failed in a worker process after 4"):
        check_outcomes(outcomes[2:], seen)
    assert check_outcomes(outcomes[:1], seen) == ["ra"]

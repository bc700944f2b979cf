"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps public functions and methods of the program from the
benchmark's side; nothing under ``src/`` changes.  A wrapped call is one
of two kinds:

* a *span* (task attempts, spill writes, merges, fetches, node-combine,
  lint): recorded individually with name, id, parent, start, end and
  self time;
* a *hot* call (per-record functions such as ``collect`` or the user's
  ``map``): only the call count and summed self time are kept per job,
  because a record per call would cost more than many of the calls.

Self time is a call's duration minus the duration of wrapped calls
nested in it on the same thread.  Times come from ``time.perf_counter``,
which on Linux is ``CLOCK_MONOTONIC`` and so comparable across the
forked worker processes.

Worker processes inherit the installed wrappers when the process backend
forks its pool.  Each worker writes what it recorded to the spool
directory when a task ends (:meth:`Tracer.dump`); :meth:`Tracer.collect`
merges the spool files with the parent's own records.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

_now = time.perf_counter


class Tracer:
    """Records spans and per-job hot-call totals, across forked workers.

    Each thread keeps ``[attributed, span_ids]``: the summed self time of
    every wrapped call that finished on it, and the ids of its open
    spans.  A call's self time is its duration minus what was attributed
    on its thread while it ran, which is exactly its nested calls."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.job = 0
        self.job_sid: str | None = None
        #: name -> [calls, self_s] of this process in the current job.
        #: The accumulators are zeroed in place, never replaced: installed
        #: wrappers hold them, also in forked workers.
        self.hot: dict[str, list] = {}
        #: job -> name -> [calls, self_s] of finished jobs (this process).
        self.hot_by_job: dict[int, dict[str, list]] = {}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._new_process()
        os.register_at_fork(after_in_child=self._new_process)

    def _new_process(self) -> None:
        """Start this process's records empty: a forked worker must not
        re-report what its parent recorded before the fork."""
        self.pid = os.getpid()
        self._token = f"{self.pid}-{os.urandom(3).hex()}"
        self._ids = itertools.count(1)
        self._clear()

    def _clear(self) -> None:
        #: Finished spans: (name, id, parent, job, start, end, self_s, pid, tid).
        self.spans: list[tuple] = []
        self._zero_hot()

    def _zero_hot(self) -> None:
        for acc in self.hot.values():
            acc[0], acc[1] = 0, 0.0

    def _state(self) -> list:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = [0.0, [None]]
            return state

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def span(self, name: str, fn):
        """Wrap *fn* so each call records one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            open_ids = state[1]
            parent = open_ids[-1] or tracer.job_sid
            sid = f"{tracer._token}.{next(tracer._ids)}"
            open_ids.append(sid)
            before = state[0]
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                open_ids.pop()
                self_s = end - start - (state[0] - before)
                state[0] += self_s
                tracer.spans.append(
                    (name, sid, parent, tracer.job, start, end, self_s,
                     tracer.pid, threading.get_ident())
                )

        return wrapper

    def hot_call(self, name: str, fn):
        """Wrap *fn* so each call adds to the job's count and self time."""
        acc = self.hot.setdefault(name, [0, 0.0])
        local = self._local
        state_of = self._state
        now = _now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = state_of()
            before = state[0]
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                self_s = now() - start - (state[0] - before)
                state[0] += self_s
                acc[0] += 1
                acc[1] += self_s

        return wrapper

    def hot_iter(self, name: str, fn):
        """Wrap a generator function so each ``next()`` is a hot call."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            timed_next = tracer.hot_call(name, iter(fn(*args, **kwargs)).__next__)
            while True:
                try:
                    item = timed_next()
                except StopIteration:
                    return
                yield item

        return wrapper

    def span_drained(self, name: str, fn):
        """Wrap a generator function as one span that drains it.  For
        functions whose every caller consumes the whole result, so the
        merge work lands inside the span instead of in the consumer."""
        listed = self.span(name, lambda *args, **kwargs: list(fn(*args, **kwargs)))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return iter(listed(*args, **kwargs))

        return wrapper

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def patch_function(self, module_name: str, attr: str, wrap) -> None:
        """Replace a module-level function everywhere the program bound
        it (``from x import f`` copies the binding into each importer)."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = wrap(original)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if (
                namespace is not None
                and getattr(module, "__name__", "").startswith("repro")
                and namespace.get(attr) is original
            ):
                self._patches.append((module, attr, original))
                setattr(module, attr, wrapper)

    def patch_method(self, cls: type, attr: str, wrap) -> None:
        """Replace a method on the class in *cls*'s MRO that defines it."""
        owner = next(klass for klass in cls.__mro__ if attr in vars(klass))
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def job_span(self, job: int):
        """Record the span of benchmark job *job*; every span and hot
        call until it ends, in any process, belongs to that job."""
        state = self._state()
        self.job = job
        self._zero_hot()
        self.job_sid = sid = f"{self._token}.{next(self._ids)}"
        state[1].append(sid)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            state[1].pop()
            self.spans.append(
                ("job", sid, None, job, start, end, 0.0, self.pid, threading.get_ident())
            )
            self.hot_by_job[job] = {name: list(acc) for name, acc in self.hot.items()}
            self.job_sid = None

    # ------------------------------------------------------------------
    # cross-process transport
    # ------------------------------------------------------------------
    def dump(self) -> None:
        """Write this process's records to the spool and clear them
        (called by workers at task end: they exit without cleanup)."""
        path = os.path.join(self.spool_dir, f"{self._token}-{next(self._ids)}.json")
        with open(path, "w") as handle:
            json.dump({"job": self.job, "spans": self.spans, "hot": self.hot}, handle)
        self._clear()

    def collect(self) -> tuple[list[dict], dict[int, dict[str, list]]]:
        """All spans (as dicts) and per-job hot totals: this process's
        plus every spooled worker file."""
        records = [list(span) for span in self.spans]
        parts = list(self.hot_by_job.items())
        for entry in sorted(os.listdir(self.spool_dir)):
            with open(os.path.join(self.spool_dir, entry)) as handle:
                part = json.load(handle)
            records.extend(part["spans"])
            parts.append((part["job"], part["hot"]))
        hot: dict[int, dict[str, list]] = {}
        for job, totals in parts:
            merged = hot.setdefault(job, {})
            for name, (calls, self_s) in totals.items():
                acc = merged.setdefault(name, [0, 0.0])
                acc[0] += calls
                acc[1] += self_s
        keys = ("name", "id", "parent", "job", "start", "end", "self_s", "pid", "tid")
        return [dict(zip(keys, record)) for record in records], hot


def chrome_trace(spans: list[dict], hot: dict[int, dict[str, list]]) -> dict:
    """Chrome trace-event JSON (Perfetto opens it): one complete event
    per span; hot-call totals ride on each job's event."""
    origin = min((span["start"] for span in spans), default=0.0)
    events = []
    for span in spans:
        args = {"id": span["id"], "parent": span["parent"], "self_ms": span["self_s"] * 1e3}
        if span["name"] == "job":
            args["hot"] = {
                name: {"calls": calls, "self_ms": self_s * 1e3}
                for name, (calls, self_s) in sorted(hot.get(span["job"], {}).items())
            }
        events.append({
            "name": span["name"],
            "cat": span["name"].split(".")[0],
            "ph": "X",
            "ts": (span["start"] - origin) * 1e6,
            "dur": (span["end"] - span["start"]) * 1e6,
            "pid": span["pid"],
            "tid": span["tid"],
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}

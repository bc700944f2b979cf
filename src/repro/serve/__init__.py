"""``repro serve`` — a multi-tenant job service over the engine.

The serve subsystem is the long-running front door the ROADMAP's
"heavy traffic" north star calls for: many tenants submit *registered*
apps and pipelines over HTTP, and the service amortizes the costs the
paper attacks per-job across the whole submission stream:

* **admission control** (:mod:`repro.serve.tenants`) — per-tenant
  quotas on in-flight jobs and on the task-attempt budget drawn from
  the engine's existing attempt accounting;
* **weighted fair queueing** (:mod:`repro.serve.queue`) — a
  deficit-round-robin scheduler across tenants feeding a bounded
  executor, so one chatty tenant cannot starve the rest;
* **warm pre-forked worker pools** (:mod:`repro.serve.lease`) —
  :class:`~repro.exec.pool.CrashTolerantPool` workers stay alive
  between jobs and are leased to submissions, amortizing process
  startup; crashes recycle through the shared task-attempt lifecycle
  (:mod:`repro.exec.attempts`) every multi-process backend uses;
* **cross-tenant execution dedup** (:mod:`repro.serve.service`) —
  identical submissions coalesce onto one in-flight execution with all
  waiters fanned in, backed by a result cache that can persist on disk
  (the same store machinery as the dataflow stage cache).

:class:`~repro.serve.server.ServeDaemon` is the stdlib-asyncio HTTP
surface; :class:`~repro.serve.client.ServeClient` the matching
``http.client`` consumer behind ``repro submit`` / ``repro jobs``.
"""

from .client import ServeClient
from .request import JobOutcome, JobRequest, execute_request
from .server import ServeDaemon
from .service import JobService, JobState

__all__ = [
    "JobOutcome",
    "JobRequest",
    "JobService",
    "JobState",
    "ServeClient",
    "ServeDaemon",
    "execute_request",
]

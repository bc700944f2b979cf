"""A real master/worker cluster runtime for the ``cluster`` backend.

The simulator next door (:mod:`repro.cluster.simulator`) *models* a
cluster; this package *is* one, at laptop scale: a master daemon owning
the job's task graph, worker daemons in separate OS processes
registering over localhost TCP and heartbeating, locality-aware
placement against a staged DFS, crash recovery through the shared
task-attempt lifecycle (:mod:`repro.exec.attempts`), and speculative
re-execution driven by the same
:class:`~repro.cluster.policy.SpeculationPolicy` the simulator uses.

Modules
-------
:mod:`~repro.cluster.runtime.protocol`
    The framed-pickle wire protocol (HELLO/PING/TASK/RESULT/STATS/BYE).
:mod:`~repro.cluster.runtime.membership`
    The heartbeat-driven ALIVE/SUSPECT/DEAD liveness state machine.
:mod:`~repro.cluster.runtime.placement`
    Input staging into a DFS and the data-local task selection rule.
:mod:`~repro.cluster.runtime.workerd`
    The worker daemon: task loop, ping thread, per-node shuffle server.
:mod:`~repro.cluster.runtime.master`
    The master's scheduling loop and the :class:`ClusterExecutor`.
"""

from .master import ClusterExecutor, Master
from .membership import Membership, Transition, WorkerRecord, WorkerState
from .placement import LocalityMap, choose_task, stage_locality

__all__ = [
    "ClusterExecutor",
    "LocalityMap",
    "Master",
    "Membership",
    "Transition",
    "WorkerRecord",
    "WorkerState",
    "choose_task",
    "stage_locality",
]

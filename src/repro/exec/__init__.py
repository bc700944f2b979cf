"""Execution backends for the repro engine (``repro.exec``).

The engine's task machinery is execution-agnostic; this package decides
*where* task attempts run:

``serial``
    The original in-order, in-thread loop — the reference backend.
``process``
    Real OS worker processes with spills on real temp disk — the
    backend that scales CPU-bound maps across cores.
``cluster``
    A master daemon scheduling over worker daemons that register and
    heartbeat over localhost TCP, with locality-aware placement and
    speculative re-execution (:mod:`repro.cluster.runtime`).  Loaded
    lazily: the runtime imports this package, so it registers here by
    dotted name instead of by class.

Select with the ``repro.exec.backend`` / ``repro.exec.workers`` conf
keys or the CLI's ``--backend`` / ``--workers`` flags.  Independently,
``repro.exec.live.pipeline`` swaps each map task's modelled spill
pipeline for a real two-thread one
(:class:`~repro.exec.livepipeline.LiveStandardCollector`), feeding the
spill-matcher measured wall-clock rates.
"""

from __future__ import annotations

from ..errors import ExecBackendError
from .base import Executor
from .process import ProcessExecutor
from .serial import SerialExecutor

BACKENDS: dict[str, type[Executor]] = {
    SerialExecutor.name: SerialExecutor,
    ProcessExecutor.name: ProcessExecutor,
}

#: Backends that would import cycles into this package if registered by
#: class: resolved on first use and cached into :data:`BACKENDS`.
_LAZY_BACKENDS: dict[str, str] = {
    "cluster": "repro.cluster.runtime.master:ClusterExecutor",
}


def backend_names() -> list[str]:
    """Every selectable backend name, eager and lazy, sorted."""
    return sorted(set(BACKENDS) | set(_LAZY_BACKENDS))


def _resolve(backend: str) -> type[Executor]:
    if backend in BACKENDS:
        return BACKENDS[backend]
    if backend in _LAZY_BACKENDS:
        import importlib

        module_name, _, class_name = _LAZY_BACKENDS[backend].partition(":")
        cls = getattr(importlib.import_module(module_name), class_name)
        BACKENDS[backend] = cls
        return cls
    raise ExecBackendError(
        f"unknown execution backend {backend!r}; "
        f"choose one of {', '.join(backend_names())}"
    )


def create_executor(
    backend: str, workers: int = 0, host: str = "localhost"
) -> Executor:
    """Instantiate the named backend
    (``serial`` | ``process`` | ``cluster``)."""
    return _resolve(backend)(workers=workers, host=host)


__all__ = [
    "BACKENDS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "backend_names",
    "create_executor",
]

"""The benchmark's workloads: which job, at which input size, on which
backend, and how its output is checked against the app's oracle.

Each workload has 8 splits; the input scale is part of its definition.
Parallel workloads use 2 workers (the machine's ``nproc``) and, on the
network shuffle, 2 fetchers, so the numbers measure the program and not
the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

SPLITS = 8
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    app: str
    config: str
    scale: float
    conf: dict[str, Any] = field(default_factory=dict)
    why: str = ""

    @property
    def workers(self) -> int:
        return WORKERS if self.conf.get("repro.exec.backend") == "process" else 1

    def build(self, seed: int, scale_factor: float = 1.0):
        """Generate the input from *seed* and construct the job."""
        from repro.experiments.common import build_app

        return build_app(
            self.app,
            self.config,
            scale=self.scale * scale_factor,
            extra_conf=self.conf,
            num_splits=SPLITS,
            seed=seed,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "wordcount-serial", "wordcount", "baseline", 0.3,
            why="headline text app in one process: collector, combiner, spill and "
            "merge dominate; map hot-path and combiner changes show here",
        ),
        Workload(
            "join-process-net", "accesslogjoin", "baseline", 0.5,
            {
                "repro.exec.backend": "process",
                "repro.exec.workers": WORKERS,
                "repro.shuffle.mode": "net",
                "repro.shuffle.fetchers": 2,
            },
            why="no combiner, wide values, 2 workers and a TCP shuffle: worker "
            "runtime and shuffle changes show here, combiner changes must not",
        ),
        Workload(
            "wordcount-combined-process", "wordcount", "combined", 0.3,
            {
                "repro.exec.backend": "process",
                "repro.exec.workers": WORKERS,
                "repro.shuffle.node.combine": True,
                "repro.lint.mode": "warn",
            },
            why="the paper's optimisations (freqbuf, spill-matcher) with node-combine "
            "and lint gating on 2 workers: combining at hash buffer, spill and node",
        ),
    )
}


def normalise(app: str, pairs) -> dict:
    """Job output in the oracle's shape (as the differential tests do)."""
    if app == "accesslogjoin":
        joined: dict[str, list[str]] = {}
        for key, value in pairs:
            joined.setdefault(key.value, []).append(value.value)
        return {key: sorted(values) for key, values in joined.items()}
    return {key.value: value.value for key, value in pairs}

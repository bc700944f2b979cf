"""Warm worker leases: crash quarantine and reuse after a poison job.

Each slot is a single-worker :class:`~repro.exec.pool.CrashTolerantPool`,
so a submission that kills its worker goes through the shared
lost-attempt rule — replaced worker, then quarantine once the
manager's ``max_attempts`` is spent — and the slot stays leasable.
"""

from __future__ import annotations

import pytest

from repro.config import Keys
from repro.errors import JobFailedError
from repro.serve import JobRequest, execute_request
from repro.serve.lease import WarmPoolManager

pytestmark = pytest.mark.serve


def wordcount(**conf) -> JobRequest:
    return JobRequest(
        tenant="alice", kind="app", name="wordcount", scale=0.01, splits=2, conf=conf
    )


@pytest.fixture
def manager():
    pools = WarmPoolManager(size=1, max_attempts=2)
    pools.start()
    yield pools
    pools.close()


def test_poison_submission_is_quarantined_and_the_slot_survives(manager):
    assert manager.total_forks == 1
    with pytest.raises(JobFailedError, match=r"task j1 quarantined after 2 worker crash"):
        manager.run(wordcount(**{Keys.FAULTS_SPEC: "worker.kill:1.0:99"}), key="j1")
    # The initial fork plus one replacement per killed worker.
    assert manager.total_forks == 3

    outcome = manager.run(wordcount(), key="j2")
    assert outcome.output_digest == execute_request(wordcount()).output_digest
    assert manager.total_forks == 3
    assert manager.leases == 2

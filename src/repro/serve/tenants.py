"""Tenants: quotas, usage accounting, and the admission controller.

Admission is the service's first gate, applied before a submission
touches the queue: a tenant may hold at most ``max_inflight``
submissions (queued + running + coalesced waiters — a waiter is a real
submission the tenant will read a result from), and may spend at most
``attempt_budget`` task attempts, drawn from the engine's existing
per-task attempt accounting (every map/reduce attempt a tenant's jobs
consume — retries and crash reschedules included — is charged against
the budget).  Dedup'd and cached submissions charge nothing: the whole
point of cross-tenant sharing is that repeated work is free.

Each tenant also accumulates its own merged :class:`~repro.engine.
counters.Counters` and :class:`~repro.engine.instrumentation.Ledger`
across every job that ran *for* it, so per-tenant reports come from
the same accounting machinery as per-job reports.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..engine.counters import Counters
from ..engine.instrumentation import Ledger


@dataclass(frozen=True)
class TenantQuota:
    """Admission limits for one tenant."""

    max_inflight: int = 64  # queued + running + coalesced waiters
    attempt_budget: int = 0  # lifetime task-attempt budget; 0 = unlimited
    weight: float = 1.0  # DRR service share


@dataclass
class Tenant:
    """One tenant's quota and running usage."""

    name: str
    quota: TenantQuota = field(default_factory=TenantQuota)
    submitted: int = 0
    rejected: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    dedup_hits: int = 0
    cache_hits: int = 0
    executed: int = 0  # submissions this tenant actually ran (led)
    inflight: int = 0
    attempts_used: int = 0
    busy_seconds: float = 0.0
    counters: Counters = field(default_factory=Counters)
    ledger: Ledger = field(default_factory=Ledger)

    def attempts_remaining(self) -> int | None:
        if self.quota.attempt_budget <= 0:
            return None
        return max(0, self.quota.attempt_budget - self.attempts_used)


@dataclass(frozen=True)
class Admission:
    """The controller's verdict on one submission."""

    admitted: bool
    reason: str = ""
    http_status: int = 200


class TenantRegistry:
    """All known tenants, created on first submission with the default
    quota (overridable per tenant before or after creation)."""

    def __init__(self, default_quota: TenantQuota | None = None) -> None:
        self.default_quota = default_quota or TenantQuota()
        self._lock = threading.Lock()
        self._tenants: dict[str, Tenant] = {}

    def get_or_create(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is None:
                quota = TenantQuota(
                    max_inflight=self.default_quota.max_inflight,
                    attempt_budget=self.default_quota.attempt_budget,
                    weight=self.default_quota.weight,
                )
                tenant = self._tenants[name] = Tenant(name=name, quota=quota)
            return tenant

    def set_weight(self, name: str, weight: float) -> None:
        tenant = self.get_or_create(name)
        tenant.quota = TenantQuota(
            max_inflight=tenant.quota.max_inflight,
            attempt_budget=tenant.quota.attempt_budget,
            weight=weight,
        )

    def all(self) -> list[Tenant]:
        with self._lock:
            return sorted(self._tenants.values(), key=lambda t: t.name)

    # ------------------------------------------------------------------
    def admit(self, tenant: Tenant) -> Admission:
        """Quota check for one more submission from *tenant*.  The
        caller holds the service lock, so read-check-increment is
        atomic with the enqueue."""
        if tenant.inflight >= tenant.quota.max_inflight:
            return Admission(
                admitted=False,
                reason=(
                    f"tenant {tenant.name!r} at max in-flight "
                    f"({tenant.quota.max_inflight})"
                ),
                http_status=429,
            )
        remaining = tenant.attempts_remaining()
        if remaining is not None and remaining <= 0:
            return Admission(
                admitted=False,
                reason=(
                    f"tenant {tenant.name!r} exhausted its task-attempt "
                    f"budget ({tenant.quota.attempt_budget})"
                ),
                http_status=429,
            )
        return Admission(admitted=True)

"""Admission control for the open-stream service tier.

Between "an application arrived" and "the daemon accepted it over IPC"
sits this controller.  It is what turns an unbounded offered stream into
a bounded system: per-tenant token buckets shape the input, an in-system
cap plus ready-queue-depth and p99-latency backpressure signals detect
saturation, and the configured policy decides what happens to arrivals
the system cannot take right now:

``block``     the arrival waits in its tenant's **bounded** hold queue and
              is released - weighted-fair across tenants - as capacity
              frees; when the hold queue itself is full the arrival sheds.
``shed``      the arrival is rejected immediately (the 429 of the piece);
              the client is expected to retry in a later frame.
``degrade``   the arrival is admitted anyway, flagged best-effort: it
              executes but its response time is excluded from the SLO
              goodput accounting (availability over bounded latency).

Boundedness is by construction, not tuning: with ``block`` or ``shed``
the number of admitted-but-unfinished applications never exceeds
``max_in_system`` and no hold queue ever exceeds ``queue_cap`` - at *any*
overload factor.  The serve tests pin both high-water marks under a 2x
overload.  Everything here is plain deterministic state driven by the
virtual clock, so admission decisions replay bit-identically across
``--jobs`` pools and cache hits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf
from typing import Any, Optional

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionConfig",
    "TokenBucket",
    "AdmissionController",
]

ADMISSION_POLICIES = ("block", "shed", "degrade")


@dataclass(frozen=True)
class AdmissionConfig:
    """Knobs of one service run's admission controller.

    ``quota_rate`` / ``quota_burst`` configure the per-tenant token
    bucket (0 rate = unlimited); ``max_in_system`` caps admitted-but-
    unfinished applications across all tenants; ``ready_depth_limit`` and
    ``p99_limit_s`` are the backpressure signals (0 disables each);
    ``queue_cap`` bounds each tenant's hold queue under ``block``.
    """

    policy: str = "shed"
    max_in_system: int = 32
    queue_cap: int = 16
    quota_rate: float = 0.0
    quota_burst: float = 8.0
    ready_depth_limit: int = 0
    p99_limit_s: float = 0.0

    def __post_init__(self) -> None:
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.policy!r}; "
                f"options: {ADMISSION_POLICIES}"
            )
        if self.max_in_system < 1:
            raise ValueError(
                f"max_in_system must be >= 1, got {self.max_in_system}"
            )
        if self.queue_cap < 0:
            raise ValueError(f"queue_cap must be >= 0, got {self.queue_cap}")
        # chained compares also reject NaN and +inf: a NaN rate refills the
        # bucket to ``burst`` on every take, i.e. silently means "unlimited"
        if not (0 <= self.quota_rate < inf and 0 <= self.quota_burst < inf):
            raise ValueError(
                f"token-bucket quota must be finite and nonnegative, got "
                f"rate={self.quota_rate}, burst={self.quota_burst}"
            )
        if not (0 <= self.ready_depth_limit < inf and 0 <= self.p99_limit_s < inf):
            raise ValueError(
                f"backpressure limits must be finite and nonnegative, got "
                f"ready_depth_limit={self.ready_depth_limit}, "
                f"p99_limit_s={self.p99_limit_s}"
            )


class TokenBucket:
    """Virtual-time token bucket: ``rate`` tokens/s, ``burst`` capacity.

    Refill is computed lazily from elapsed simulated time, so the bucket
    schedules no events and costs nothing when idle.  Starts full.
    """

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = 0.0

    def take(self, now: float) -> bool:
        """Consume one token if available at simulated instant *now*."""
        if now > self._last:
            self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
            self._last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class _TenantState:
    __slots__ = ("name", "weight", "bucket", "hold", "hold_hwm", "pass_value")

    def __init__(self, name: str, weight: float, bucket: Optional[TokenBucket]) -> None:
        self.name = name
        self.weight = weight
        self.bucket = bucket
        self.hold: deque[Any] = deque()
        self.hold_hwm = 0
        #: stride-scheduling pass value; the nonempty queue with the lowest
        #: pass releases next, and each release advances it by 1/weight -
        #: long-run releases are proportional to tenant weight.
        self.pass_value = 0.0


class AdmissionController:
    """Deterministic admission state machine for one service run."""

    def __init__(
        self,
        config: AdmissionConfig,
        tenants: list[tuple[str, float]],
    ) -> None:
        if not tenants:
            raise ValueError("admission needs at least one tenant")
        for name, weight in tenants:
            if weight <= 0:
                raise ValueError(f"tenant {name!r} weight must be positive")
        self.config = config
        self._tenants = {
            name: _TenantState(
                name,
                weight,
                TokenBucket(config.quota_rate, config.quota_burst)
                if config.quota_rate > 0
                else None,
            )
            for name, weight in tenants
        }
        #: deterministic tie-break order for equal-pass weighted release
        self._order = {name: i for i, (name, _) in enumerate(tenants)}
        self.in_system = 0
        self.in_system_hwm = 0

    # -- signals -------------------------------------------------------- #

    def _pressured(self, ready_depth: int, p99_s: float) -> bool:
        cfg = self.config
        if self.in_system >= cfg.max_in_system:
            return True
        if cfg.ready_depth_limit and ready_depth > cfg.ready_depth_limit:
            return True
        if cfg.p99_limit_s and p99_s > cfg.p99_limit_s:
            return True
        return False

    # -- the decision --------------------------------------------------- #

    def decide(
        self, tenant: str, now: float, ready_depth: int = 0, p99_s: float = 0.0
    ) -> str:
        """Admission outcome for one arrival: admit | hold | shed | degrade.

        ``admit`` and ``degrade`` must be followed by :meth:`admitted`;
        ``hold`` by :meth:`push`; ``shed`` needs nothing.
        """
        state = self._tenants[tenant]
        quota_ok = state.bucket is None or state.bucket.take(now)
        if quota_ok and not self._pressured(ready_depth, p99_s):
            return "admit"
        policy = self.config.policy
        if policy == "degrade":
            return "degrade"
        if policy == "block" and len(state.hold) < self.config.queue_cap:
            return "hold"
        return "shed"

    # -- bookkeeping ---------------------------------------------------- #

    def admitted(self, tenant: str) -> None:
        self.in_system += 1
        if self.in_system > self.in_system_hwm:
            self.in_system_hwm = self.in_system

    def finished(self, tenant: str) -> None:
        if self.in_system <= 0:
            raise RuntimeError("admission books corrupt: finish without admit")
        self.in_system -= 1

    def push(self, tenant: str, item: Any) -> None:
        """Park one held arrival (only after :meth:`decide` said ``hold``)."""
        state = self._tenants[tenant]
        if len(state.hold) >= self.config.queue_cap:
            raise RuntimeError(
                f"hold queue overflow for {tenant!r}: decide() must gate push()"
            )
        state.hold.append(item)
        if len(state.hold) > state.hold_hwm:
            state.hold_hwm = len(state.hold)

    def release(self) -> list[tuple[str, Any]]:
        """Pop held arrivals, weighted-fair, while in-system capacity frees.

        Called after every completion (and at duration expiry): while the
        in-system count sits below the cap and any hold queue is nonempty,
        the tenant with the lowest stride pass releases its oldest held
        arrival.  Selection depends only on controller state, so the
        release order is deterministic.
        """
        out: list[tuple[str, Any]] = []
        while self.in_system + len(out) < self.config.max_in_system:
            candidates = [s for s in self._tenants.values() if s.hold]
            if not candidates:
                break
            state = min(
                candidates,
                key=lambda s: (s.pass_value, self._order[s.name]),
            )
            state.pass_value += 1.0 / state.weight
            out.append((state.name, state.hold.popleft()))
        return out

    def held(self) -> int:
        """Total arrivals currently parked across all hold queues."""
        return sum(len(s.hold) for s in self._tenants.values())

    def hold_hwm(self, tenant: str) -> int:
        return self._tenants[tenant].hold_hwm

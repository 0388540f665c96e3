"""Deterministic fault model for the CEDR runtime.

The baseline CEDR paper frames the daemon as the resilience point of a
long-running DSSoC deployment; this module supplies the *fault side* of
that story as data.  A :class:`FaultConfig` describes what can go wrong
(per-PE fault rate, fault kinds, recovery policy knobs) and
:func:`fault_stream` turns it into the per-PE fault timeline that
:class:`~repro.faults.inject.FaultInjector` replays as simulator timer
events.

Determinism contract
--------------------

The fault timeline of a run is a **pure function of (platform, fault
config, seed)**:

* each PE draws its own independent stream via
  :func:`repro.simcore.child_rng` keyed by ``faults.<pe name>``, so one
  PE's faults never perturb another's, and adding a PE to the platform
  does not reshuffle the faults of existing PEs;
* inter-fault gaps are exponential with mean ``1 / rate`` and the kind of
  each fault is drawn from the configured ``kinds`` tuple using the same
  per-PE stream, one (gap, kind) pair per fault - the sequence does not
  depend on simulated load, queue state, or wall clock;
* ``seed=None`` defers to the engine seed of the run, so sweeping trial
  seeds also sweeps fault timelines while a pinned ``--fault-seed`` holds
  faults constant across scheduler/mode comparisons.

Because of this, a faulty run reproduces bit-for-bit under
``--jobs N`` process-pool sweeps exactly like a fault-free one.

Fault kinds
-----------

========== ===========================================================
transient  the PE's next completed task fails (bit-flip / crashed
           kernel detected at completion); the task is retried
hang       the PE's next task gets stuck for ``hang_s`` (wedged
           accelerator / runaway polling loop); the daemon watchdog
           detects the missed deadline and re-dispatches
failstop   the PE dies permanently; queued tasks bounce back and the
           scheduler never uses the PE again
slowdown   the PE silently degrades to ``1/slowdown_factor`` of its
           profiled speed for ``slowdown_s`` (thermal throttling)
========== ===========================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import inf
from typing import Iterator, Optional, Sequence

from repro.simcore import child_rng

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultConfig",
    "TaskLostError",
    "DEFAULT_FAULT_KINDS",
    "fault_stream",
    "preview_schedule",
]


class TaskLostError(RuntimeError):
    """Raised through a libCEDR completion handle when a task exhausts
    its retry budget and the runtime declares it (and its application)
    lost."""


class FaultKind(enum.Enum):
    """The injectable failure modes (see module docstring)."""

    TRANSIENT = "transient"
    HANG = "hang"
    FAILSTOP = "failstop"
    SLOWDOWN = "slowdown"


#: Default fault mix: recoverable faults only.  Fail-stop PE death is
#: opt-in (``--fault-kinds transient,hang,failstop``) because it changes
#: the platform's capability set for the rest of the run.
DEFAULT_FAULT_KINDS = (FaultKind.TRANSIENT, FaultKind.HANG, FaultKind.SLOWDOWN)


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: inject ``kind`` on PE ``pe`` at time ``at``.

    Scripted faults complement the rate-driven stream; tests use them to
    place a fault exactly (e.g. on the final task of an application).
    """

    at: float
    pe: str
    kind: FaultKind

    def __post_init__(self) -> None:
        if not 0 <= self.at < inf:  # NaN fails both comparisons
            raise ValueError(f"fault time must be finite and >= 0, got {self.at}")


@dataclass(frozen=True)
class FaultConfig:
    """Fault-injection and recovery-policy knobs for one run.

    ``rate`` is expected faults per simulated second *per PE*; 0 plus an
    empty ``script`` disables the subsystem entirely (the runtime takes
    the exact pre-fault code paths, bit-identical to a build without it).
    Retry backoff is exponential: attempt *k* waits
    ``retry_backoff_s * 2**(k-1)`` capped at ``retry_backoff_cap_s``.
    """

    rate: float = 0.0
    seed: Optional[int] = None
    kinds: tuple[FaultKind, ...] = DEFAULT_FAULT_KINDS
    script: tuple[FaultSpec, ...] = ()

    # recovery policy ----------------------------------------------------- #
    max_retries: int = 3
    retry_backoff_s: float = 1e-4
    retry_backoff_cap_s: float = 5e-3
    #: a retried task avoids the PE(s) it already failed on, unless that
    #: would leave it with no candidate at all
    exclude_failed_pe: bool = True
    quarantine_s: float = 2e-3

    # fault-kind parameters ----------------------------------------------- #
    hang_s: float = 0.05
    slowdown_factor: float = 4.0
    slowdown_s: float = 0.01

    # watchdog ------------------------------------------------------------ #
    #: per-task deadline = expected completion + grace + factor * estimate
    watchdog_factor: float = 8.0
    watchdog_grace_s: float = 5e-3

    def __post_init__(self) -> None:
        # chained compares also reject NaN and +inf: a NaN rate, hang or
        # watchdog factor would reach the engine as a NaN timer instant
        if not 0 <= self.rate < inf:
            raise ValueError(f"fault rate must be finite and >= 0, got {self.rate}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"fault seed must be >= 0, got {self.seed}")
        if not self.kinds:
            raise ValueError("fault config needs at least one fault kind")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (0 <= self.retry_backoff_s < inf and 0 <= self.retry_backoff_cap_s < inf):
            raise ValueError(
                f"retry backoff values must be finite and >= 0, got "
                f"retry_backoff_s={self.retry_backoff_s}, "
                f"retry_backoff_cap_s={self.retry_backoff_cap_s}"
            )
        if not 0 <= self.quarantine_s < inf:
            raise ValueError(
                f"quarantine_s must be finite and >= 0, got {self.quarantine_s}"
            )
        if not (0 < self.hang_s < inf and 0 < self.slowdown_s < inf):
            raise ValueError(
                f"hang_s and slowdown_s must be finite and > 0, got "
                f"hang_s={self.hang_s}, slowdown_s={self.slowdown_s}"
            )
        if not 1.0 <= self.slowdown_factor < inf:
            raise ValueError(
                f"slowdown_factor is a finite slowdown (>= 1), got {self.slowdown_factor}"
            )
        if not (0 < self.watchdog_factor < inf and 0 <= self.watchdog_grace_s < inf):
            raise ValueError(
                f"watchdog parameters must be finite and positive, got "
                f"watchdog_factor={self.watchdog_factor}, "
                f"watchdog_grace_s={self.watchdog_grace_s}"
            )

    @property
    def active(self) -> bool:
        """Whether this config injects anything at all."""
        return self.rate > 0.0 or bool(self.script)

    def backoff(self, attempt: int) -> float:
        """Capped exponential backoff before retry *attempt* (1-based)."""
        if attempt < 1:
            raise ValueError(f"retry attempts are 1-based, got {attempt}")
        return min(
            self.retry_backoff_s * (2.0 ** (attempt - 1)), self.retry_backoff_cap_s
        )

    @staticmethod
    def parse_kinds(spec: str) -> tuple[FaultKind, ...]:
        """Parse a ``--fault-kinds`` comma list ("transient,hang,...").

        Validates against the fault-kind registry, so names and error
        listings track what the injector can actually apply (the
        registry's unknown-name error is a ``ValueError`` with the
        available kinds and a did-you-mean hint).
        """
        from .registry import FAULT_KINDS  # local: registry imports model

        kinds = []
        for part in spec.split(","):
            part = part.strip().lower()
            if not part:
                continue
            kinds.append(FAULT_KINDS.get(part).kind)
        if not kinds:
            raise ValueError(f"empty fault-kind specification {spec!r}")
        return tuple(kinds)


def fault_stream(
    pe_name: str, config: FaultConfig, engine_seed: int
) -> Iterator[tuple[float, FaultKind]]:
    """Infinite (time, kind) fault sequence for one PE.

    This is the determinism contract made executable: the sequence depends
    only on the PE's name, the fault config, and the resolved seed.  The
    injector consumes it lazily (one timer ahead), so no horizon needs to
    be known up front.
    """
    if config.rate <= 0.0:
        return
    seed = config.seed if config.seed is not None else engine_seed
    rng = child_rng(seed, f"faults.{pe_name}")
    kinds = config.kinds
    mean_gap = 1.0 / config.rate
    t = 0.0
    while True:
        t += float(rng.exponential(mean_gap))
        yield t, kinds[int(rng.integers(len(kinds)))]


def preview_schedule(
    pe_names: Sequence[str],
    config: FaultConfig,
    horizon: float,
    engine_seed: int = 0,
) -> list[FaultSpec]:
    """The fault schedule up to ``horizon``, without running anything.

    Pure function of (PE names, config, seed); sorted by time.  Useful for
    tests and for eyeballing a schedule before committing to a sweep.
    """
    events: list[FaultSpec] = []
    for name in pe_names:
        for t, kind in fault_stream(name, config, engine_seed):
            if t > horizon:
                break
            events.append(FaultSpec(at=t, pe=name, kind=kind))
    for spec in config.script:
        if spec.at <= horizon:
            events.append(spec)
    events.sort(key=lambda e: (e.at, e.pe))
    return events

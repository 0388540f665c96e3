"""Fault injector: replays a fault schedule as simulator timer events.

One :class:`FaultInjector` is attached to a :class:`~repro.runtime.daemon.
CedrRuntime` whenever its config carries an *active* fault configuration.
At :meth:`arm` time it walks every PE's deterministic
:func:`~repro.faults.model.fault_stream` lazily - one engine timer ahead
per PE - plus any scripted :class:`~repro.faults.model.FaultSpec` entries,
and applies each fault when its timer fires:

========== ===========================================================
transient  increments ``pe.transient_pending``; the worker fails the
           next task that completes on the PE
hang       increments ``pe.hang_pending``; the next task on the PE
           wedges for ``hang_s`` (the daemon watchdog usually recovers
           it first)
failstop   marks the PE dead + unavailable and posts ``pe_dead`` so
           the daemon can re-triage parked tasks
slowdown   degrades the PE by ``slowdown_factor`` for ``slowdown_s``
           (epoch-guarded revert timer)
========== ===========================================================

Faults landing on an already-dead PE are dropped, and stream transients/
hangs landing on an *idle* PE are dropped too (there is no live task state
to corrupt).  Scripted faults are forced: their effect is left pending for
the next task on the PE, which makes deterministic recovery tests easy to
write.  Every applied fault is one ``fault`` incident in the run's
:class:`~repro.runtime.Logbook` (the Chrome-trace exporter turns those, and
the daemon's ``redispatch`` incidents, into instant events).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .model import FaultConfig, FaultKind, fault_stream
from .registry import FAULT_KINDS

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms import PE
    from repro.runtime.daemon import CedrRuntime

__all__ = ["FaultInjector"]


class FaultInjector:
    """Drives one runtime's fault schedule off the simulation clock."""

    def __init__(self, runtime: "CedrRuntime", config: FaultConfig) -> None:
        self.runtime = runtime
        self.config = config
        self._stopped = False

    def arm(self) -> None:
        """Schedule the first timer of every PE stream + all scripted faults."""
        engine = self.runtime.engine
        pes = {pe.name: pe for pe in self.runtime.platform.pes}
        #: kind -> (registry entry, name), resolved here rather than per fault
        self._kinds = {kind: (FAULT_KINDS.get(kind.value), kind.value)
                       for kind in (*self.config.kinds, *(s.kind for s in self.config.script))}
        for pe in pes.values():
            self._arm_next(pe, fault_stream(pe.name, self.config, engine.seed))
        for spec in self.config.script:
            pe = pes.get(spec.pe)
            if pe is None:
                raise ValueError(
                    f"scripted fault names unknown PE {spec.pe!r}; "
                    f"platform has: {sorted(pes)}"
                )
            engine.call_at(
                spec.at, lambda p=pe, k=spec.kind: self._fire(p, k, forced=True)
            )

    def disarm(self) -> None:
        """Stop injecting: pending timers become no-ops and re-arming ends.

        The daemon calls this at shutdown - the per-PE streams are infinite,
        so without it the one-timer-ahead chain would keep the engine's
        timer heap non-empty forever and :meth:`Engine.run` would never
        terminate.  It drops the runtime too (a cycle that would outlive the
        run); a stopped :meth:`_fire` returns before it reads the runtime.
        """
        self._stopped = True
        self.runtime = None

    def _arm_next(self, pe: "PE", stream: Iterator[tuple[float, FaultKind]]) -> None:
        if self._stopped:
            return
        step = next(stream, None)
        if step is None:
            return
        at, kind = step

        def _on_timer() -> None:
            self._fire(pe, kind)
            self._arm_next(pe, stream)

        self.runtime.engine.call_at(at, _on_timer)

    def _fire(self, pe: "PE", kind: FaultKind, forced: bool = False) -> None:
        if self._stopped:
            return  # runtime already shut down; drain timers silently
        if pe.dead:
            return  # a dead PE cannot fail any harder
        runtime = self.runtime
        entry, name = self._kinds[kind]
        if (
            not forced
            and entry.needs_live_task
            and not runtime.inflight[pe.index]
        ):
            # Transients corrupt live task state and hangs wedge an active
            # dispatch: a fault landing on an *idle* PE has nothing to hit
            # and is dropped.  Keeping these as sticky pending counters
            # instead would concentrate every idle-time fault onto the next
            # task to arrive - in practice the workload's last stragglers,
            # which then exhaust any retry budget no matter how generous.
            return
        runtime.logbook.record_incident(
            runtime.engine.now, "fault", name, pe=pe.name
        )
        entry.apply(self, pe)

    def end_slowdown(self, pe: "PE", epoch: int) -> None:
        # A newer slowdown fault restarted the degradation window; its own
        # revert timer owns the recovery then.
        if pe.slow_epoch == epoch and not pe.dead:
            pe.fault_slow_factor = 1.0

"""Arrival-generator registry: seeded, deterministic open-stream arrivals.

CEDR frames the runtime as a persistent daemon fed by applications that
arrive *over time*; DS3 (Arda et al.) evaluates schedulers under streaming
job-injection processes.  This module is the one place arrival processes
are defined - both the closed-batch figures (``WorkloadSpec.instantiate``
takes the first *N* arrivals of a stream) and the open-stream service mode
(``repro.serve.driver`` keeps pulling until the duration expires) draw
from the same registry, so "how jobs arrive" is specified once.

Determinism contract
--------------------

Every generator is a **pure function of ``(spec, rng state)``**: given an
:class:`ArrivalSpec` and a freshly seeded ``numpy`` Generator (from
:func:`repro.simcore.child_rng`; ``None`` for a seed-free kind), it yields the exact same
nondecreasing instant sequence on every call, in every process.
Generators never read the engine clock, wall time, or any shared state -
which is what keeps serve runs bit-identical across ``--jobs`` pools and
cache hits (the serve determinism tests pin it).

Two bit-identity subtleties are load-bearing and pinned by tests:

* ``periodic`` computes instant *j* as ``phase + j * period`` by
  **multiplication**, never by repeated addition - running float
  accumulation drifts from ``np.arange(n) * period`` in the last ulp,
  which would silently re-time every pinned closed-batch figure;
* ``poisson`` draws scalar exponential gaps in sequence, which NumPy
  guarantees bit-identical to the historical vectorized
  ``rng.exponential(mean, size=n)`` + ``cumsum`` path the workload layer
  used before this registry existed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Union

import numpy as np

from repro.registry import Registry

__all__ = [
    "ARRIVALS",
    "SEED_FREE_ARRIVALS",
    "ArrivalSpec",
    "register_arrival",
    "available_arrivals",
    "make_arrival_stream",
    "arrival_rate",
]

#: (spec, seeded rng or None if SEED_FREE) -> instants; quoted: loads no numpy.random
ArrivalFn = Callable[["ArrivalSpec", "Optional[np.random.Generator]"], Iterator[float]]

#: the arrival-process registry - the first conforming client of
#: :class:`repro.registry.Registry` (this module *was* the proof-of-pattern
#: one-off dict before the facility existed).  Third-party processes plug
#: in via the ``repro.arrivals`` entry-point group.
ARRIVALS: Registry[ArrivalFn] = Registry(
    "arrival process", entry_point_group="repro.arrivals"
)

#: the builtins that never draw from their rng: a stream of one of these is
#: the same for every seed.  Any other process, plug-ins included, is taken
#: to read it (``repro.experiments.seed_invariant``).
SEED_FREE_ARRIVALS = frozenset({"periodic", "trace"})

#: the builtins' rates, periods and lengths: each must be > 0 when given
_POSITIVE_PARAMS = frozenset({"rate", "period", "cycle", "burst_len", "loop"})
#: every numeric parameter of the builtins (a string there is an error)
_NUMBER_PARAMS = _POSITIVE_PARAMS | {"idle_len", "floor", "phase"}


@dataclass(frozen=True)
class ArrivalSpec:
    """One arrival process: a registered kind plus its parameters.

    ``params`` is a name-sorted tuple of ``(name, value)`` pairs so specs
    are hashable, order-insensitive, and canonically encodable by the
    content-addressed sweep cache (two spellings of the same process get
    the same cache digest).
    """

    kind: str
    params: tuple[tuple[str, Union[float, str]], ...] = ()

    def __post_init__(self) -> None:
        # registry lookup: RegistryError is a ValueError, and the message
        # lists every available process with a did-you-mean hint
        ARRIVALS.get(self.kind)
        names = [name for name, _ in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate arrival parameter in {names}")
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        # numbers are checked here, not when a generator first runs, so spec
        # validation and ``repro serve --arrival`` reject them before a run
        for name, value in self.params:
            if isinstance(value, str):
                if name in _NUMBER_PARAMS:
                    raise ValueError(f"arrival parameter {name}={value!r} must be numeric")
                continue
            if not math.isfinite(value):
                raise ValueError(f"arrival parameter {name} must be finite, got {value}")
            if name in _POSITIVE_PARAMS and value <= 0:
                raise ValueError(f"arrival parameter {name} must be positive, got {value}")
            if name == "idle_len" and value < 0:
                raise ValueError(f"arrival parameter idle_len must be >= 0, got {value}")
            if name == "floor" and not 0.0 <= value <= 1.0:
                raise ValueError(f"arrival parameter floor must be in [0, 1], got {value}")

    @classmethod
    def make(cls, kind: str, **params: Union[float, str]) -> "ArrivalSpec":
        return cls(kind, tuple(params.items()))

    @classmethod
    def parse(cls, text: str) -> "ArrivalSpec":
        """Parse the CLI form ``kind:name=value,name=value``.

        Values parse as floats when possible and stay strings otherwise
        (``trace:path=out/logbook.json``).  A bare ``kind`` means all
        defaults: ``poisson`` == ``ArrivalSpec.make("poisson")``.
        """
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        params: list[tuple[str, Union[float, str]]] = []
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            name, sep, raw = part.partition("=")
            if not sep or not name.strip():
                raise ValueError(
                    f"bad arrival parameter {part!r} in {text!r} "
                    f"(expected name=value)"
                )
            raw = raw.strip()
            try:
                value: Union[float, str] = float(raw)
            except ValueError:
                value = raw
            params.append((name.strip(), value))
        return cls(kind, tuple(params))

    def get(self, name: str, default: Union[float, str, None] = None):
        for key, value in self.params:
            if key == name:
                return value
        return default

    def number(self, name: str, default: Optional[float] = None) -> Optional[float]:
        value = self.get(name, default)
        if value is None:
            return None
        if isinstance(value, str):
            raise ValueError(
                f"arrival parameter {name}={value!r} must be numeric"
            )
        return float(value)

    def describe(self) -> str:
        if not self.params:
            return self.kind
        body = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}:{body}"


def register_arrival(kind: str) -> Callable[[ArrivalFn], ArrivalFn]:
    """Register a generator factory under *kind* (decorator)."""
    return ARRIVALS.register(kind)


def available_arrivals() -> tuple[str, ...]:
    """Registered arrival-process names, sorted."""
    return ARRIVALS.names()


def make_arrival_stream(
    spec: ArrivalSpec, rng: Optional[np.random.Generator]
) -> Iterator[float]:
    """Instantiate *spec* as an iterator of nondecreasing arrival instants.

    *rng* is freshly seeded for this stream (one ``child_rng(seed, label)``
    per stream, never shared), so the stream is pure in ``(spec, seed,
    label)``; it is ``None`` for ``SEED_FREE_ARRIVALS``, which never draw.  Streams
    may be infinite (``periodic``, ``poisson``, ``bursty``, ``diurnal``,
    looped ``trace``); callers take what they need (``islice`` for a
    closed batch, pull-until-duration for serve).
    """
    return ARRIVALS.get(spec.kind)(spec, rng)


def _period_of(spec: ArrivalSpec) -> float:
    """Mean inter-arrival seconds from either a ``period`` or ``rate`` param.

    ``period`` wins when both are given: the workload layer passes the
    exact ``frame_mb / rate_mbps`` quotient through untouched, so the
    closed-batch figures never re-derive (and re-round) it from a rate.
    """
    period = spec.number("period")
    if period is None:
        rate = spec.number("rate")
        if rate is None:
            raise ValueError(
                f"arrival process {spec.kind!r} needs a rate= (arrivals/s) "
                f"or period= (seconds) parameter"
            )
        period = 1.0 / rate
    return period


def arrival_rate(spec: ArrivalSpec) -> float:
    """Nominal mean arrival rate (arrivals/s) of *spec*, for reporting."""
    if spec.kind == "trace":
        times = list(_trace_times(spec))
        if len(times) < 2 or times[-1] <= times[0]:
            return 0.0
        return (len(times) - 1) / (times[-1] - times[0])
    rate = 1.0 / _period_of(spec)
    if spec.kind == "bursty":
        on = spec.number("burst_len", _BURST_LEN_DEFAULT)
        off = spec.number("idle_len", _IDLE_LEN_DEFAULT)
        return rate * on / (on + off)
    if spec.kind == "diurnal":
        floor = spec.number("floor", _DIURNAL_FLOOR_DEFAULT)
        return rate * (floor + (1.0 - floor) * 0.5)
    return rate


# --------------------------------------------------------------------- #
# builtins
# --------------------------------------------------------------------- #


@register_arrival("periodic")
def _periodic(spec: ArrivalSpec, rng: Optional[np.random.Generator]) -> Iterator[float]:
    """Deterministic fixed-period arrivals: instant *j* at ``phase + j*period``.

    The paper's injection process (Section III: each rate "defines a
    periodic rate of job").  Ignores *rng* entirely.  The multiplication
    (never ``t += period``) keeps instant *j* bit-identical to the
    pre-registry ``np.arange(count) * period`` schedule.
    """
    period = _period_of(spec)
    phase = spec.number("phase", 0.0)
    j = 0
    while True:
        yield phase + j * period
        j += 1


@register_arrival("poisson")
def _poisson(spec: ArrivalSpec, rng: np.random.Generator) -> Iterator[float]:
    """Memoryless arrivals: i.i.d. exponential gaps at the same mean rate.

    The first arrival comes after one full gap (not pinned to t=0), so the
    mean inter-arrival matches the periodic stream's period exactly - the
    convention the arrival-process ablation figures were recorded under.
    """
    mean_gap = _period_of(spec)
    t = 0.0
    while True:
        t += float(rng.exponential(mean_gap))
        yield t


_BURST_LEN_DEFAULT = 0.05   # mean ON-phase seconds
_IDLE_LEN_DEFAULT = 0.05    # mean OFF-phase seconds


@register_arrival("bursty")
def _bursty(spec: ArrivalSpec, rng: np.random.Generator) -> Iterator[float]:
    """Markov-modulated on/off Poisson process (interrupted Poisson).

    A two-state phase chain alternates exponentially distributed ON
    (``burst_len`` mean seconds) and OFF (``idle_len``) dwell times; during
    ON phases arrivals are Poisson at ``rate``, during OFF phases nothing
    arrives.  Long-run mean rate is ``rate * burst_len / (burst_len +
    idle_len)``.  Models the clustered submissions CEDR sees from a frame-
    synchronous sensor front-end.
    """
    mean_gap = _period_of(spec)
    burst_len = spec.number("burst_len", _BURST_LEN_DEFAULT)
    idle_len = spec.number("idle_len", _IDLE_LEN_DEFAULT)
    t = 0.0           # candidate arrival clock
    phase_end = 0.0   # end of the current ON phase
    while True:
        if t >= phase_end:
            # start the next ON window after an OFF dwell; any candidate
            # beyond the window rolls into the next one (draw order is
            # fixed: dwell pair first, then gaps - pure in (spec, seed))
            start = max(t, phase_end + float(rng.exponential(idle_len))) \
                if idle_len > 0 else t
            phase_end = start + float(rng.exponential(burst_len))
            t = start
        t += float(rng.exponential(mean_gap))
        if t < phase_end:
            yield t
        # else: the gap crossed the ON window's end; loop re-enters the
        # phase logic with t >= phase_end and opens the next window


_DIURNAL_FLOOR_DEFAULT = 0.1   # off-peak fraction of the peak rate
_DIURNAL_PERIOD_DEFAULT = 1.0  # envelope period, simulated seconds


@register_arrival("diurnal")
def _diurnal(spec: ArrivalSpec, rng: np.random.Generator) -> Iterator[float]:
    """Nonhomogeneous Poisson with a sinusoidal rate envelope (thinning).

    Instantaneous rate is ``peak * (floor + (1-floor) * (1 - cos(2*pi*t /
    cycle)) / 2)``: it starts at the ``floor`` fraction of the peak,
    crests mid-cycle, and returns - a compressed "diurnal" load curve.
    ``rate``/``period`` set the *peak*; ``cycle`` sets the envelope length
    (default 1 simulated second).  Implemented by Lewis-Shedler thinning:
    candidates at the peak rate, each kept with probability
    ``envelope(t)`` - one uniform per candidate, so the stream is a pure
    function of ``(spec, seed)``.
    """
    mean_gap = _period_of(spec)   # candidate gap at the *peak* rate
    floor = spec.number("floor", _DIURNAL_FLOOR_DEFAULT)
    cycle = spec.number("cycle", _DIURNAL_PERIOD_DEFAULT)
    t = 0.0
    while True:
        t += float(rng.exponential(mean_gap))
        envelope = floor + (1.0 - floor) * 0.5 * (
            1.0 - math.cos(2.0 * math.pi * t / cycle)
        )
        if float(rng.random()) < envelope:
            yield t


def _trace_times(spec: ArrivalSpec) -> list[float]:
    """The base instant list of a ``trace`` spec (sorted, nonnegative)."""
    literal = spec.get("times")
    path = spec.get("path")
    if (literal is None) == (path is None):
        raise ValueError(
            "trace needs exactly one of times=t0;t1;... or "
            "path=<logbook.json>"
        )
    if literal is not None:
        if isinstance(literal, float):   # single-instant trace parsed as float
            times = [literal]
        else:
            times = [float(part) for part in str(literal).split(";") if part.strip()]
    else:
        # Imported here: the serve tier sits beside the runtime package,
        # and only a replay needs its dump reader.
        from repro.runtime.logbook import Logbook

        try:
            book = Logbook.load(str(path))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        times = [float(app.t_arrival) for app in book.apps.values()]
    if not times:
        raise ValueError("trace replay needs at least one arrival instant")
    times.sort()
    if times[0] < 0:
        raise ValueError(f"trace contains a negative instant: {times[0]}")
    return times


@register_arrival("trace")
def _trace(spec: ArrivalSpec, rng: Optional[np.random.Generator]) -> Iterator[float]:
    """Replay recorded arrival instants - from a logbook dump or a literal.

    ``path=out/logbook.json`` replays the ``t_arrival`` of every app in a
    saved run's logbook (CEDR's arbitrary-trace injection); ``times=
    0.01;0.02;0.05`` replays a literal semicolon-separated list.  With
    ``loop=<seconds>`` the trace repeats forever, shifted by the loop
    period each pass (an open-stream service can replay a one-second
    capture indefinitely); without it the stream is finite.
    """
    times = _trace_times(spec)
    loop = spec.number("loop")
    if loop is None:
        yield from times
        return
    if times[-1] >= loop:
        raise ValueError(
            f"trace instants must fit inside the loop period "
            f"({times[-1]} >= {loop})"
        )
    k = 0
    while True:
        base = k * loop   # multiplication, not accumulation: exact phases
        for t in times:
            yield base + t
        k += 1

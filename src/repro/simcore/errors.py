"""Exception hierarchy for the discrete-event simulation core.

Every error raised by :mod:`repro.simcore` derives from :class:`SimError` so
callers can catch simulation-layer failures without masking programming
errors elsewhere in the stack.
"""

from __future__ import annotations


class SimError(Exception):
    """Base class for all simulation-core errors."""


class SimDeadlock(SimError):
    """Raised when the engine runs out of events while threads are blocked.

    A deadlock in simulated time means every live thread is waiting on a
    condition variable, mutex, or join that no runnable thread can ever
    satisfy.  The message lists the blocked threads to aid debugging.
    """


class SimStateError(SimError):
    """Raised on illegal simulation operations.

    Examples: waiting on a condition variable without holding its mutex,
    releasing a mutex the thread does not own, or spawning a thread on an
    unknown core.
    """


class SimTimeError(SimError):
    """Raised when a request would move simulated time backwards or uses a
    negative or non-finite (NaN, infinite) duration/work amount/instant."""

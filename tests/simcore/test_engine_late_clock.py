"""The engine finishes once the clock passes 2**14 s.

Past 16 384 s half an ulp of ``now`` (1.8e-12 s and up) exceeds
``WORK_EPSILON`` (1e-12).  A head whose residual work falls between the two
has a completion instant that rounds to ``now``, so the advance moves the
clock by ``0.0`` and can never make it due: ``Engine.run`` used to spin
there forever.  Each case runs under a wall-clock alarm, so a regression
fails in seconds instead of hanging the suite.
"""

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.simcore import Compute, Engine, Sleep


@contextmanager
def wall_clock_alarm(seconds: int):
    def fire(signum, frame):
        raise TimeoutError(f"Engine.run did not return within {seconds} s of wall time")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError as exc:
        # a message only: the traceback of an exception raised inside the
        # engine loop by a signal handler cannot be rendered
        pytest.fail(str(exc), pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def burn(work):
    yield Compute(work)


def two_jobs(first_sleep: float) -> tuple[Engine, list]:
    """One core: after *first_sleep* s a pinned 0.86 s job, 0.121 s later a
    pinned 0.333 s one."""
    eng = Engine(cores=1)
    core = eng.cores[0]
    jobs = []

    def main():
        yield Sleep(first_sleep)
        jobs.append(eng.spawn(burn(0.86), "a", affinity=core))
        yield Sleep(0.121)
        jobs.append(eng.spawn(burn(0.333), "b", affinity=core))

    eng.spawn(main(), "main")
    return eng, jobs


@pytest.mark.parametrize("first_sleep", [10000.0, 30000.0])
def test_two_jobs_finish_on_either_side_of_two_to_the_fourteen(first_sleep):
    eng, jobs = two_jobs(first_sleep)
    with wall_clock_alarm(10):
        end = eng.run()
    # processor sharing: both jobs' work, back to back, after the sleep
    assert end == pytest.approx(first_sleep + 1.193, rel=1e-12)
    assert [job.cpu_time for job in jobs] == [0.86, 0.333]
    assert not eng.threads


def test_seeded_mm1_ps_run_passes_two_to_the_fourteen():
    """M/M/1-PS at rho = 0.3 (arrivals 0.3/s, Exp(1) work), 8 000 jobs: the
    clock ends near 26 000 s, and every job gets exactly its work."""
    rng = np.random.default_rng(0)
    gaps = rng.exponential(1 / 0.3, 8000)
    works = rng.exponential(1.0, 8000)
    eng = Engine(cores=1)
    core = eng.cores[0]
    jobs = []

    def source():
        for gap, work in zip(gaps, works):
            yield Sleep(float(gap))
            jobs.append(eng.spawn(burn(float(work)), "job", affinity=core))

    eng.spawn(source(), "source")
    with wall_clock_alarm(30):
        end = eng.run()
    assert end > 2.0**14
    assert len(jobs) == 8000 and not eng.threads
    assert [job.cpu_time for job in jobs] == [float(w) for w in works]
    assert core.busy_time / end == pytest.approx(works.sum() / end, rel=1e-9)

"""What the run record costs: bytes a serve cell's book holds per task.

The book's per-task tables (``tasks``, ``calls``, ``rounds`` and
``releases``) are typed columns, so a completed task costs its machine
words, not a record object plus boxed numbers (docs/INTERNALS.md, "The
record's bytes per task").  Measured with tracemalloc as what deleting the
book frees once the rest of the run is gone: ~565 B per task for this cell
when each table was a list of row objects, ~230 B as columns.  The bound
sits midway, so a table that goes back to rows fails here.
"""

import gc
import tracemalloc

from repro.apps import PulseDoppler, WifiTx
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.serve import ArrivalSpec, ServeConfig, ServeDriver, TenantSpec

BYTES_PER_TASK = 400

#: the serve_knee cell, shortened: Poisson 60 apps/s, shed admission, heft_rt
SERVE = ServeConfig(
    tenants=(TenantSpec("radar", ArrivalSpec.make("poisson", rate=60.0),
                        apps=(PulseDoppler(batch=16), WifiTx(n_packets=20, batch=4)),
                        slo_s=0.05),),
    duration=0.5,
    scheduler="heft_rt",
)


def test_a_serve_books_bytes_per_task_are_bounded():
    tracemalloc.start()
    try:
        runtime = CedrRuntime(
            zcu102(n_cpu=3, n_fft=1).build(seed=0),
            RuntimeConfig(scheduler="heft_rt", execute_kernels=False),
        )
        runtime.start()
        driver = ServeDriver(runtime, SERVE, 0)
        driver.arm()
        runtime.run()
        assert driver.result().completed > 0  # the fold
        book = runtime.logbook
        del runtime, driver
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        tasks = len(book.tasks)
        del book
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert tasks > 500
    assert freed / tasks <= BYTES_PER_TASK, f"{freed / tasks:.0f} B per task"

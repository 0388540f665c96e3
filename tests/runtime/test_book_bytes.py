"""What the run record costs: bytes a book holds per task and per incident.

The book's row tables (``tasks``, ``calls``, ``rounds``, ``incidents``,
and ``releases``) are typed columns, so a row costs its machine words, not
a record object plus boxed numbers (docs/INTERNALS.md, "The record's bytes
per task").  Measured with tracemalloc as what deleting the book (or its
``incidents``) frees once the rest of the run is gone: for the serve cell,
~565 B per task when each table was a list of row objects, ~230 B as
columns; for the faulty cell, ~115 B per incident as slotted ``Incident``
objects, ~59 B as columns (seven words a row).  Each bound sits midway, so
a table that goes back to rows fails here.
"""

import gc
import tracemalloc

import numpy as np

from repro.apps import PulseDoppler, WifiTx
from repro.faults import FaultConfig, FaultKind
from repro.platforms import jetson, zcu102
from repro.runtime import CedrRuntime, RuntimeConfig
from repro.serve import ArrivalSpec, ServeConfig, ServeDriver, TenantSpec

BYTES_PER_TASK = 400
BYTES_PER_INCIDENT = 85

#: the serve_knee cell, shortened: Poisson 60 apps/s, shed admission, heft_rt
SERVE = ServeConfig(
    tenants=(TenantSpec("radar", ArrivalSpec.make("poisson", rate=60.0),
                        apps=(PulseDoppler(batch=16), WifiTx(n_packets=20, batch=4)),
                        slo_s=0.05),),
    duration=0.5,
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


def test_a_faulty_books_bytes_per_incident_are_bounded():
    """Jetson under etf, 400 faults/s/PE (transient, hang, slowdown): two
    Pulse Doppler and two Wi-Fi TX instances, ~530 incident rows."""
    faults = FaultConfig(rate=400.0, kinds=(FaultKind.TRANSIENT, FaultKind.HANG,
                                            FaultKind.SLOWDOWN))
    tracemalloc.start()
    try:
        runtime = CedrRuntime(jetson().build(seed=0), RuntimeConfig(
            scheduler="etf", execute_kernels=False, faults=faults))
        runtime.start()
        rng = np.random.default_rng(0)
        for i in range(2):
            for app in (PulseDoppler(batch=16), WifiTx(n_packets=20, batch=4)):
                runtime.submit(app.make_instance("api", rng, timing_only=True), at=i * 1e-3)
        runtime.seal()
        runtime.run()
        book = runtime.logbook
        del runtime
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        incidents = len(book.incidents)
        del book.incidents
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert incidents > 400
    assert freed / incidents <= BYTES_PER_INCIDENT, f"{freed / incidents:.0f} B per incident"

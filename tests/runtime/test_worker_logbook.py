"""Worker behaviour, logbook, and perf-counter tests."""

import numpy as np
import pytest

from repro.platforms import PEKind, zcu102
from repro.runtime import API_MODE, AppInstance, CedrRuntime, RuntimeConfig
from repro.runtime.logbook import AppRecord, Logbook, TaskRecord
from repro.runtime.perf_counters import PerfCounters


def fft_burst_factory(data, count):
    """Main that issues `count` non-blocking FFTs at once."""
    def main(lib):
        from repro.core.handles import wait_all
        reqs = []
        for _ in range(count):
            reqs.append((yield from lib.fft_nb(data)))
        outs = yield from wait_all(reqs)
        return outs
    return main


def run_burst(count=12, n_fft=1, scheduler="rr", seed=4):
    platform = zcu102(n_cpu=3, n_fft=n_fft).build(seed=seed)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler=scheduler))
    runtime.start()
    rng = np.random.default_rng(seed)
    data = rng.normal(size=256) + 1j * rng.normal(size=256)
    app = AppInstance(name="burst", mode=API_MODE, frame_mb=0.1,
                      main_factory=fft_burst_factory(data, count))
    runtime.submit(app, at=0.0)
    runtime.seal()
    runtime.run()
    return runtime, app, platform


def test_rr_spreads_burst_across_pes():
    runtime, app, platform = run_burst(count=12, scheduler="rr")
    hist = runtime.logbook.tasks_by_pe()
    assert hist.get("fft0", 0) > 0, "accelerator never used"
    assert sum(hist.values()) == 12


def test_accelerator_device_occupied_while_polled():
    runtime, app, platform = run_burst(count=8, scheduler="rr")
    dev = platform.accel_pes[0].device
    assert dev.served == runtime.logbook.tasks_by_pe().get("fft0", 0)
    assert dev.busy_time > 0


def test_worker_backlog_feedback_drains_and_learns():
    runtime, _, platform = run_burst(count=12, scheduler="rr")
    by_pe = runtime.logbook.tasks_by_pe()
    used = [pe for pe in platform.pes if by_pe.get(pe.name, 0) > 0]
    assert used
    for pe in used:
        # the backlog estimate must fully drain by shutdown
        assert pe.outstanding_est == pytest.approx(0.0, abs=1e-12)
        assert pe.slowdown > 0
    # the FFT accelerator's polling dispatch contends with CPU work, so its
    # observed slowdown moves above the profile's dedicated-core assumption
    fft_pe = next(pe for pe in platform.pes if pe.kind is PEKind.FFT)
    if by_pe.get(fft_pe.name, 0):
        assert fft_pe.slowdown > 1.0


def test_results_returned_in_request_order():
    runtime, app, _ = run_burst(count=5)
    assert len(app.result) == 5
    for out in app.result:
        assert out.shape == (256,)


def test_logbook_records_match_counters():
    runtime, _, _ = run_burst(count=10)
    assert len(runtime.logbook.tasks) == runtime.counters.tasks_completed == 10
    for rec in runtime.logbook.tasks:
        assert rec.t_release <= rec.t_scheduled <= rec.t_start <= rec.t_finish
        assert rec.queue_wait >= 0
        assert rec.service_time > 0


def test_logbook_serialization_roundtrip():
    runtime, _, _ = run_burst(count=4)
    dump = runtime.logbook.serialize()
    assert len(dump["tasks"]) == 4
    assert len(dump["apps"]) == 1
    assert dump["apps"][0]["name"] == "burst"
    assert dump["apps"][0]["t_finish"] is not None


def test_app_record_execution_time_guard():
    rec = AppRecord(app_id=0, name="x", mode="api", t_arrival=0.0)
    with pytest.raises(ValueError, match="never finished"):
        rec.execution_time


def test_record_task_fills_every_column_in_field_order():
    """``record_task`` builds the row positionally, so a reordered field
    would land values in the wrong column: every column is given a distinct
    value here and checked by name.  The row is a plain (not frozen)
    dataclass that still compares and hashes by value."""
    import dataclasses

    from repro.platforms import PE, PEDescriptor
    from repro.runtime import Task

    succ = Task(api="zip", params={"n": 8}, app_id=3)
    task = Task(
        api="fft", params={"n": 64}, app_id=3, name="node", attempts=2,
        cost_row=5, cost_token=9, t_release=0.1, t_scheduled=0.2, t_start=0.3, t_finish=0.4,
    )
    task.add_successor(succ)
    task.pe = PE(index=1, desc=PEDescriptor(name="fft0", kind=PEKind.FFT, clock_ghz=0.3))
    book = Logbook()
    book.record_task(task)
    want = TaskRecord(
        tid=task.tid, app_id=3, api="fft", name="node", pe="fft0", pe_kind="fft",
        t_release=0.1, t_scheduled=0.2, t_start=0.3, t_finish=0.4, attempts=2,
        cost_row=5, cost_token=9, successors=(succ.tid,),
    )
    (row,) = book.tasks
    assert row == want and hash(row) == hash(want)
    assert vars(row) == vars(want) and list(vars(row)) == [f.name for f in dataclasses.fields(row)]
    assert not TaskRecord.__dataclass_params__.frozen
    succ.pe = task.pe
    book.record_task(succ)
    assert book.tasks[1].successors == ()


def test_perf_counters_aggregation():
    """The counters store no simulated tally: they aggregate logbook rows."""
    book = Logbook()
    c = PerfCounters(book)
    assert c.tasks_completed == 0 and c.sched_rounds == 0
    for tid, (pe, api, service) in enumerate(
        [("cpu0", "fft", 0.01), ("cpu0", "zip", 0.02), ("fft0", "fft", 0.005)]
    ):
        book.tasks.append(TaskRecord(
            tid=tid, app_id=0, api=api, name=f"t{tid}", pe=pe, pe_kind="cpu",
            t_release=0.0, t_scheduled=0.0, t_start=1.0, t_finish=1.0 + service,
        ))
    book.record_round(0.1, 3, 1e-6, 0.1, [0.0, 0.0, 0.0])
    book.record_round(0.2, 5, 1e-6, 0.2, [0.1] * 5)
    snap = c.snapshot()
    assert snap["per_pe"]["cpu0"]["tasks"] == 2
    assert snap["per_pe"]["cpu0"]["by_api"] == {"fft": 1, "zip": 1}
    assert snap["per_pe"]["cpu0"]["busy_seconds"] == pytest.approx(0.03)
    assert snap["ready_depth_max"] == 5
    assert snap["ready_depth_mean"] == pytest.approx(4.0) == book.ready_depths()[1]
    assert c.tasks_completed == 3 and c.sched_rounds == 2


def test_logbook_save_roundtrip(tmp_path):
    import json

    runtime, _, _ = run_burst(count=3)
    path = runtime.logbook.save(tmp_path / "shutdown.json")
    loaded = json.loads(open(path).read())
    assert len(loaded["tasks"]) == 3
    assert loaded["apps"][0]["mode"] == "api"

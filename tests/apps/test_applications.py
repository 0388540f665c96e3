"""Application tests: the three paper apps in all three forms."""

import numpy as np
import pytest

from repro.apps import LaneDetection, PulseDoppler, WifiTx, chunk_slices
from repro.core import run_standalone
from repro.kernels.radar import PDGeometry
from repro.platforms import zcu102
from repro.runtime import CedrRuntime, RuntimeConfig


def run_through_runtime(app_def, inputs, mode, variant=None, scheduler="eft", seed=6):
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=seed)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler=scheduler))
    runtime.start()
    inst = app_def.make_instance(mode, np.random.default_rng(seed),
                                 variant=variant, inputs=inputs)
    runtime.submit(inst, at=0.0)
    runtime.seal()
    runtime.run()
    return inst, runtime


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #

def test_chunk_slices_cover_range():
    slices = chunk_slices(10, 3)
    covered = []
    for sl in slices:
        covered.extend(range(sl.start, sl.stop))
    assert covered == list(range(10))
    with pytest.raises(ValueError):
        chunk_slices(5, 0)


def test_make_instance_rejects_unknown_mode(rng, pd_small):
    with pytest.raises(ValueError, match="unknown mode"):
        pd_small.make_instance("jit", rng)


# --------------------------------------------------------------------- #
# Pulse Doppler
# --------------------------------------------------------------------- #

def test_pd_frame_size_matches_pulse_matrix(pd_small):
    geom = pd_small.geom
    assert pd_small.frame_mb == pytest.approx(geom.n_pulses * geom.n_fast * 64 / 1e6)


def test_pd_reference_detects_configured_target(pd_small, rng):
    inputs = pd_small.make_input(rng)
    det = pd_small.reference(inputs)
    assert abs(det.range_bin - pd_small.target_range_bin) <= 1


@pytest.mark.parametrize("variant", ["blocking", "nonblocking"])
def test_pd_standalone_equals_reference(pd_small, rng, variant):
    inputs = pd_small.make_input(rng)
    ref = pd_small.reference(inputs)
    got = run_standalone(lambda lib: pd_small.api_main(lib, inputs, variant=variant))
    assert got.range_bin == ref.range_bin
    assert got.doppler_bin == ref.doppler_bin


@pytest.mark.parametrize("mode,variant", [("dag", None), ("api", "blocking"),
                                          ("api", "nonblocking")])
def test_pd_runtime_forms_agree(pd_small, rng, mode, variant):
    inputs = pd_small.make_input(rng)
    ref = pd_small.reference(inputs)
    inst, _ = run_through_runtime(pd_small, inputs, mode, variant)
    det = inst.result if mode == "api" else inst.state["detection"]
    assert det.range_bin == ref.range_bin


def test_pd_task_count_scales_with_batch(rng):
    """batch=1 gives the paper's per-FFT task granularity (~512 FFT tasks)."""
    inputs = PulseDoppler(batch=1).make_input(rng)
    fine = PulseDoppler(batch=1).build_dag(inputs)[0]
    coarse = PulseDoppler(batch=16).build_dag(inputs)[0]
    assert fine.n_nodes > 700          # 128*4 kernel + 256 dop + cpu nodes
    assert coarse.n_nodes < 70
    fft_nodes = [n for n, v in fine.spec["nodes"].items()
                 if v["api"] in ("fft", "ifft")]
    assert len(fft_nodes) == 513       # paper's "FFTs scaling to 512"


@pytest.mark.parametrize("mode", ["api", "dag"])
def test_pd_fft_beyond_the_accelerator_envelope_runs_on_cpus(rng, mode):
    """A 4096-point range FFT exceeds the 2048-point FFT IP: with an FFT
    accelerator on the platform those tasks run on the CPUs (as on real
    CEDR) instead of killing the run; the 16-point Doppler FFTs still use
    the accelerator.  rr spreads over every candidate, audited."""
    app = PulseDoppler(geom=PDGeometry(n_fast=4096, n_pulses=16), batch=4)
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=0)
    config = RuntimeConfig(scheduler="rr", execute_kernels=False, audit=True)
    runtime = CedrRuntime(platform, config)
    runtime.start()
    runtime.submit(app.make_instance(mode, rng, timing_only=True), at=0.0)
    runtime.seal()
    runtime.run()
    (inst,) = runtime.apps.values()
    assert inst.finished and not inst.failed
    table = runtime.cost_table
    interned = table.n_rows
    oversized = {
        table.row(api, {"n": 4096, "batch": batch})
        for api, batch in (("fft", 1), ("fft", 4), ("ifft", 4))
    }
    ran = [rec for rec in runtime.logbook.tasks if rec.cost_row in oversized]
    assert len(ran) == 9 and table.n_rows == interned  # the run's own rows
    assert {rec.pe_kind for rec in ran} == {"cpu"}
    assert any(rec.pe == "fft0" for rec in runtime.logbook.tasks)


# --------------------------------------------------------------------- #
# WiFi TX
# --------------------------------------------------------------------- #

def test_tx_frame_has_one_ifft_per_packet(rng):
    tx = WifiTx(n_packets=100, batch=1)
    inputs = tx.make_input(rng)
    program, _ = tx.build_dag(inputs)
    iffts = [n for n, v in program.spec["nodes"].items() if v["api"] == "ifft"]
    assert len(iffts) == 100  # paper: ~100 FFTs per TX frame


def test_tx_standalone_equals_reference(tx_small, rng):
    inputs = tx_small.make_input(rng)
    ref = tx_small.reference(inputs)
    got = run_standalone(lambda lib: tx_small.api_main(lib, inputs))
    assert np.allclose(got, ref, atol=1e-9)


@pytest.mark.parametrize("mode", ["dag", "api"])
def test_tx_runtime_forms_agree(tx_small, rng, mode):
    inputs = tx_small.make_input(rng)
    ref = tx_small.reference(inputs)
    inst, _ = run_through_runtime(tx_small, inputs, mode)
    out = inst.result if mode == "api" else inst.state["frame"]
    assert np.allclose(out, ref, atol=1e-8)


def test_tx_output_is_power_normalized(tx_small, rng):
    frame = tx_small.reference(tx_small.make_input(rng))
    # Parseval with the 1/N ifft convention: mean time power is
    # (occupied bins) / N^2 = 68 / 128^2 for 64 data + 4 pilot bins.
    power = np.mean(np.abs(frame) ** 2)
    assert power * 128**2 / 68 == pytest.approx(1.0, rel=0.15)


# --------------------------------------------------------------------- #
# Lane Detection
# --------------------------------------------------------------------- #

def test_ld_tile_matches_paper_at_full_scale():
    ld = LaneDetection()  # 960x540 default
    assert ld.tile == 1024
    assert ld.frame_mb == pytest.approx(960 * 540 * 24 / 1e6)


def test_ld_small_standalone_equals_reference(ld_small, rng):
    inputs = ld_small.make_input(rng)
    ref = ld_small.reference(inputs)
    got = run_standalone(lambda lib: ld_small.api_main(lib, inputs))
    assert got[0] is not None and ref[0] is not None
    assert got[0].theta == pytest.approx(ref[0].theta)
    assert got[1].rho == pytest.approx(ref[1].rho)


@pytest.mark.parametrize("mode", ["dag", "api"])
def test_ld_runtime_forms_agree(ld_small, rng, mode):
    inputs = ld_small.make_input(rng)
    ref = ld_small.reference(inputs)
    inst, _ = run_through_runtime(ld_small, inputs, mode)
    lanes = inst.result if mode == "api" else inst.state["lanes"]
    assert lanes[0].theta == pytest.approx(ref[0].theta)
    assert lanes[1].theta == pytest.approx(ref[1].theta)


def test_ld_dag_kernel_counts_match_conv_structure(ld_small, rng):
    """4 convs x (2 fwd + 1 inv) 2-D transforms, each 2 batched 1-D passes."""
    inputs = ld_small.make_input(rng)
    program, _ = ld_small.build_dag(inputs)
    nodes = program.spec["nodes"]
    chunks = ld_small.tile // ld_small.batch
    ffts = [n for n, v in nodes.items() if v["api"] == "fft"]
    iffts = [n for n, v in nodes.items() if v["api"] == "ifft"]
    zips = [n for n, v in nodes.items() if v["api"] == "zip"]
    assert len(ffts) == 4 * 2 * 2 * chunks    # 4 convs x 2 tiles x 2 passes
    assert len(iffts) == 4 * 1 * 2 * chunks   # 4 convs x 1 inverse x 2 passes
    assert len(zips) == 4 * chunks


def test_ld_full_scale_row_count_matches_paper():
    """At 960x540 with batch=1 the DAG would carry 16384 forward and 8192
    inverse 1-D FFT tasks; verify by arithmetic (not by building the DAG)."""
    ld = LaneDetection()
    rows_per_fft2 = 2 * ld.tile
    assert 4 * 2 * rows_per_fft2 == 16384
    assert 4 * 1 * rows_per_fft2 == 8192

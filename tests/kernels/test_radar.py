"""Pulse-Doppler radar kernel tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import radar


def test_chirp_has_unit_amplitude():
    c = radar.lfm_chirp(64)
    assert np.allclose(np.abs(c), 1.0)


def test_chirp_too_short_rejected():
    with pytest.raises(ValueError):
        radar.lfm_chirp(1)


def test_chirp_autocorrelation_peaks_at_zero_lag():
    c = radar.lfm_chirp(128)
    corr = np.abs(np.correlate(c, c, mode="full"))
    assert np.argmax(corr) == 127  # zero lag


def test_geometry_resolutions():
    geom = radar.PDGeometry()
    assert geom.range_resolution == pytest.approx(3e8 / (2 * geom.fs))
    assert geom.velocity_resolution > 0
    assert geom.n_chirp == 64


@given(
    range_bin=st.integers(5, 180),
    velocity=st.floats(-100.0, 100.0, allow_nan=False),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=25, deadline=None)
def test_detection_recovers_planted_target(range_bin, velocity, seed):
    geom = radar.PDGeometry()
    rng = np.random.default_rng(seed)
    pulses, ref = radar.synthesize_returns(geom, range_bin, velocity, snr_db=25.0, rng=rng)
    rd = radar.doppler_process(radar.pulse_compress(pulses, ref))
    det = radar.detect_target(rd, geom)
    assert abs(det.range_bin - range_bin) <= 1
    # velocity is quantized to Doppler bins and aliases at +-prf/2
    wavelength = 3e8 / geom.fc
    v_max = wavelength * geom.prf / 4
    expected = (velocity + v_max) % (2 * v_max) - v_max
    assert abs(det.velocity_ms - expected) <= geom.velocity_resolution


def test_out_of_window_target_rejected(rng):
    geom = radar.PDGeometry()
    with pytest.raises(ValueError):
        radar.synthesize_returns(geom, geom.n_fast - 1, 0.0, 20.0, rng)
    with pytest.raises(ValueError):
        radar.synthesize_returns(geom, -1, 0.0, 20.0, rng)


def test_pulse_compress_shape_checks(rng):
    with pytest.raises(ValueError):
        radar.pulse_compress(np.zeros((4, 64), complex), np.zeros(32, complex))
    with pytest.raises(ValueError):
        radar.doppler_process(np.zeros(64, complex))


def test_pulse_compress_concentrates_energy(rng):
    geom = radar.PDGeometry(n_pulses=16)
    pulses, ref = radar.synthesize_returns(geom, 40, 0.0, snr_db=30.0, rng=rng)
    comp = radar.pulse_compress(pulses, ref)
    peak_bin = int(np.argmax(np.abs(comp[0])))
    assert abs(peak_bin - 40) <= 1


def test_zero_velocity_lands_in_dc_doppler_bin(rng):
    geom = radar.PDGeometry()
    pulses, ref = radar.synthesize_returns(geom, 60, 0.0, snr_db=25.0, rng=rng)
    det = radar.detect_target(radar.doppler_process(radar.pulse_compress(pulses, ref)), geom)
    assert det.doppler_bin == 0
    assert det.velocity_ms == pytest.approx(0.0)


def test_task_counts_match_paper_claim():
    """Paper: PD's FFT instances scale to ~512 per frame."""
    counts = radar.pd_task_counts(radar.PDGeometry())
    total_fft_class = counts["fft"] + counts["ifft"]
    assert total_fft_class == 513  # 128 fwd + 1 ref + 256 doppler + 128 inv
    assert counts["zip"] == 128


def test_detection_reports_physical_units(rng):
    geom = radar.PDGeometry()
    pulses, ref = radar.synthesize_returns(geom, 80, 30.0, snr_db=25.0, rng=rng)
    det = radar.detect_target(radar.doppler_process(radar.pulse_compress(pulses, ref)), geom)
    assert det.range_m == pytest.approx(det.range_bin * geom.range_resolution)
    assert det.snr_estimate_db > 10.0


def _returns_with_a_noise_array(geom, target_range_bin, target_velocity, snr_db, rng):
    """``synthesize_returns`` as it was before the noise was added in place:
    the complex noise built whole (four payload-sized temporaries), then
    added to the echo."""
    chirp = radar.lfm_chirp(geom.n_chirp)
    reference = np.zeros(geom.n_fast, dtype=np.complex128)
    reference[: geom.n_chirp] = chirp
    doppler_hz = 2.0 * target_velocity / (radar.C_LIGHT / geom.fc)
    doppler_phase = np.exp(2j * np.pi * doppler_hz * np.arange(geom.n_pulses) / geom.prf)
    echo = np.zeros((geom.n_pulses, geom.n_fast), dtype=np.complex128)
    echo[:, target_range_bin : target_range_bin + geom.n_chirp] = chirp[None, :]
    echo *= doppler_phase[:, None]
    noise_power = 10.0 ** (-snr_db / 10.0)
    noise = rng.normal(0.0, np.sqrt(noise_power / 2.0), echo.shape) + 1j * rng.normal(
        0.0, np.sqrt(noise_power / 2.0), echo.shape
    )
    return echo + noise, reference


@pytest.mark.parametrize("seed", range(50))
def test_noise_added_in_place_is_bit_identical(seed):
    geom = radar.PDGeometry()
    args = (geom, 40 + seed, 15.0 - seed, 10.0 + seed % 7)
    pulses, ref = radar.synthesize_returns(*args, np.random.default_rng(seed))
    old_pulses, old_ref = _returns_with_a_noise_array(*args, np.random.default_rng(seed))
    assert pulses.tobytes() == old_pulses.tobytes() and ref.tobytes() == old_ref.tobytes()

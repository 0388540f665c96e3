"""A timing-only application run allocates no payload-sized scratch.

Where a timing-only run (``execute_kernels=False``) would build an operand
it never computes - the corner-turned matrix of PD, the symbol grids of TX,
the padded tile of LD, the lag matrices of TM - it passes a zero-stride
stand-in of the right shape instead (``repro.apps.base.stand_in``).  Each
app's ``api_main`` is driven here against a recording libCEDR double, and
at every kernel call tracemalloc's numpy domain must hold less than that
call's payload above what the run started with.
"""

import tracemalloc

import numpy as np
import pytest

from repro.apps import LaneDetection, PulseDoppler, TemporalMitigation, WifiTx

NUMPY = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)


def numpy_bytes() -> int:
    """Bytes of numpy array data alive right now."""
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces([NUMPY]).traces)


class _Done:
    """A settled non-blocking handle with no result (nothing executes)."""

    def wait(self):
        return None
        yield


class RecordingLib:
    """A timing-only libCEDR: every kernel call records its payload and the
    numpy bytes alive when it was made, and returns nothing."""

    executes = False

    def __init__(self) -> None:
        self.calls: list[tuple[int, int]] = []  # (payload bytes, numpy bytes alive)

    def _record(self, payload) -> None:
        assert all(not any(a.strides) for a in payload), "a payload is not a stand-in"
        self.calls.append((sum(a.nbytes for a in payload), numpy_bytes()))

    def _call(self, *payload):
        self._record(payload)
        return None
        yield

    def _call_nb(self, *payload):
        self._record(payload)
        return _Done()
        yield

    fft = ifft = zip = gemm = _call
    fft_nb = ifft_nb = zip_nb = gemm_nb = _call_nb

    def local_work(self, seconds):
        return None
        yield


@pytest.mark.parametrize("variant", ["blocking", "nonblocking"])
@pytest.mark.parametrize("app", [
    PulseDoppler(batch=16), WifiTx(n_packets=64, batch=4),
    LaneDetection(), TemporalMitigation(),
], ids=lambda app: app.name)
def test_timing_only_run_allocates_no_payload_sized_array(app, variant):
    inputs = app.shape_inputs()
    lib = RecordingLib()
    tracemalloc.start()
    try:
        before = numpy_bytes()
        assert list(app.api_main(lib, inputs, variant=variant)) == []
    finally:
        tracemalloc.stop()
    assert lib.calls
    for payload, alive in lib.calls:
        assert alive - before < payload

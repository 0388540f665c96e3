"""Saturation figure: knee detection, serve codec, sweep-cache reuse."""

import json
from pathlib import Path

import pytest

from repro.experiments import SweepCache, run_figure
from repro.metrics import detect_knee
from repro.experiments.cache import RUN_CODEC
from repro.runtime import RuntimeConfig
from repro.serve import ArrivalSpec, ServeConfig, TenantSpec, serve_codec, serve_once

LOADS = (40.0, 120.0, 360.0)

#: the mini-grid panels (``FigureSeries.as_dict()``) the saturation figure
#: produced before figures became table rows
GOLDEN = json.loads(Path(__file__).with_name("golden_saturation_panels.json").read_text())


class TestDetectKnee:
    def test_finds_the_bend(self):
        xs = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        ys = (10.0, 20.0, 30.0, 34.0, 35.0, 35.5)   # saturates after x=3
        assert detect_knee(xs, ys) == 2

    def test_degenerate_curves_have_no_knee(self):
        assert detect_knee((1.0, 2.0), (1.0, 2.0)) is None          # too short
        assert detect_knee((1.0, 2.0, 3.0), (5.0, 5.0, 5.0)) is None  # flat
        assert detect_knee((1.0, 1.0, 1.0), (1.0, 2.0, 3.0)) is None  # no x span

    def test_linear_curve_has_no_knee(self):
        xs = (0.0, 1.0, 2.0, 3.0)
        assert detect_knee(xs, xs) is None

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="length mismatch"):
            detect_knee((1.0, 2.0), (1.0,))


class TestFigure:
    def test_panels_and_knee(self):
        panels = run_figure("saturation", xs=LOADS, duration=0.1, trials=1)
        assert {pid: fig.as_dict() for pid, fig in panels.items()} == GOLDEN["mini"]
        throughput = panels["saturation_throughput"].get("SHED")
        p99 = panels["saturation_p99"].get("SHED")
        assert throughput.xs == LOADS and p99.xs == LOADS
        assert all(y >= 0 for y in throughput.ys)
        assert all(y >= 0 for y in p99.ys)
        if "saturation_knee" in panels:
            knee_x = panels["saturation_knee"].get("THROUGHPUT").xs[0]
            assert knee_x in LOADS

    def test_figure_is_deterministic(self):
        a = run_figure("saturation", xs=LOADS, duration=0.1, trials=1)
        b = run_figure("saturation", xs=LOADS, duration=0.1, trials=1)
        assert a["saturation_throughput"].as_dict() == b["saturation_throughput"].as_dict()


class TestServeCodec:
    def serve_result(self, zcu_small, pd_small, seed=0):
        serve = ServeConfig(
            tenants=(TenantSpec(
                "radar", ArrivalSpec.make("poisson", rate=200.0), (pd_small,),
            ),),
            duration=0.1,
        )
        config = RuntimeConfig(scheduler="heft_rt", execute_kernels=False)
        return serve, serve_once(zcu_small, serve, seed, config)

    def test_round_trip_is_exact(self, zcu_small, pd_small):
        codec = serve_codec()
        _, result = self.serve_result(zcu_small, pd_small)
        assert codec.decode(codec.encode(result)) == result

    def test_cache_hit_returns_identical_serve_result(
        self, tmp_path, zcu_small, pd_small
    ):
        codec = serve_codec()
        serve, result = self.serve_result(zcu_small, pd_small)
        cache = SweepCache(tmp_path)
        cell = (zcu_small, serve, 0, None)
        assert cache.put(cell, result, codec=codec)
        assert cache.get(cell, codec=codec) == result
        assert cache.stats.hits == 1

    def test_kind_mismatch_degrades_to_miss(self, tmp_path, zcu_small, pd_small):
        # a serve entry must never decode under the batch codec (or vice
        # versa): the kind recheck drops it as corrupt instead
        serve, result = self.serve_result(zcu_small, pd_small)
        cache = SweepCache(tmp_path)
        cell = (zcu_small, serve, 0, None)
        assert cache.put(cell, result, codec=serve_codec())
        assert cache.get(cell, codec=RUN_CODEC) is None
        assert cache.stats.corrupt == 1

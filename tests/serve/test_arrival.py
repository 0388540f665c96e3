"""Arrival-generator registry: spec parsing, builtins, trace replay."""

import json

import numpy as np
import pytest

from repro.runtime import Logbook
from repro.serve import ArrivalSpec, arrival_rate, available_arrivals, make_arrival_stream
from repro.simcore import child_rng


def _dump(**sections):
    """The text of an empty book's dump with *sections* replaced."""
    return json.dumps({**Logbook().serialize(), **sections})


def take(spec, n, seed=0, label="t"):
    stream = make_arrival_stream(spec, child_rng(seed, label))
    return [next(stream) for _ in range(n)]


class TestArrivalSpec:
    def test_builtins_registered(self):
        assert available_arrivals() == (
            "bursty", "diurnal", "periodic", "poisson", "trace",
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            ArrivalSpec.make("exponential", rate=1.0)

    def test_params_are_name_sorted(self):
        a = ArrivalSpec("bursty", (("rate", 5.0), ("burst_len", 0.1)))
        b = ArrivalSpec("bursty", (("burst_len", 0.1), ("rate", 5.0)))
        assert a == b and hash(a) == hash(b)

    def test_duplicate_param_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ArrivalSpec("poisson", (("rate", 1.0), ("rate", 2.0)))

    def test_parse_round_trip(self):
        spec = ArrivalSpec.parse("poisson:rate=120")
        assert spec == ArrivalSpec.make("poisson", rate=120.0)
        assert spec.describe() == "poisson:rate=120.0"

    def test_parse_bare_kind_and_strings(self):
        assert ArrivalSpec.parse("poisson:rate=3").kind == "poisson"
        spec = ArrivalSpec.parse("trace:times=0.1;0.2,loop=1.0")
        assert spec.get("times") == "0.1;0.2"
        assert spec.number("loop") == 1.0

    def test_parse_rejects_bare_value(self):
        with pytest.raises(ValueError, match="name=value"):
            ArrivalSpec.parse("poisson:120")

    def test_number_rejects_string(self):
        spec = ArrivalSpec.make("trace", times="0.1;0.2")
        with pytest.raises(ValueError, match="must be numeric"):
            spec.number("times")

    def test_rate_or_period_required(self):
        spec = ArrivalSpec.make("poisson")
        with pytest.raises(ValueError, match="rate=.*or period="):
            next(make_arrival_stream(spec, np.random.default_rng(0)))

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="rate must be positive"):
            ArrivalSpec.make("periodic", rate=0.0)

    @pytest.mark.parametrize("text,message", [
        ("poisson:rate=nan", "rate must be finite, got nan"),
        ("poisson:rate=inf", "rate must be finite, got inf"),
        ("periodic:period=0", "period must be positive"),
        ("periodic:rate=100,phase=nan", "phase must be finite"),
        ("diurnal:rate=10,cycle=-1", "cycle must be positive"),
        ("bursty:rate=10,idle_len=-0.1", "idle_len must be >= 0"),
        ("trace:times=0.1;0.2,loop=0", "loop must be positive"),
        ("poisson:rate=fast", "rate='fast' must be numeric"),
    ])
    def test_bad_numbers_rejected_at_construction(self, text, message):
        """A spec that would fail inside a running engine never builds."""
        with pytest.raises(ValueError, match=message):
            ArrivalSpec.parse(text)


class TestBuiltins:
    def test_periodic_is_multiplicative(self):
        # instant j must be phase + j*period by multiplication: bit-equal
        # to the pre-registry np.arange(n) * period schedule
        period = 0.3072 / 200.0
        spec = ArrivalSpec.make("periodic", period=period)
        got = take(spec, 50)
        assert got == list(np.arange(50) * period)

    def test_periodic_phase(self):
        spec = ArrivalSpec.make("periodic", rate=100.0, phase=0.5)
        assert take(spec, 3) == [0.5, 0.5 + 0.01, 0.5 + 2 * 0.01]

    def test_periodic_ignores_rng(self):
        spec = ArrivalSpec.make("periodic", rate=10.0)
        a = [next(make_arrival_stream(spec, np.random.default_rng(1))) for _ in range(2)]
        b = [next(make_arrival_stream(spec, np.random.default_rng(2))) for _ in range(2)]
        assert a == b

    def test_poisson_matches_vectorized_cumsum(self):
        # sequential scalar draws must equal the historical vectorized
        # exponential + cumsum path bit-for-bit
        spec = ArrivalSpec.make("poisson", period=0.01)
        got = take(spec, 40, seed=7, label="x")
        ref = np.cumsum(child_rng(7, "x").exponential(0.01, size=40))
        assert got == list(ref)

    @pytest.mark.parametrize("kind,params", [
        ("bursty", {"rate": 200.0}),
        ("bursty", {"rate": 200.0, "burst_len": 0.02, "idle_len": 0.1}),
        ("diurnal", {"rate": 300.0}),
        ("diurnal", {"rate": 300.0, "floor": 0.5, "cycle": 0.2}),
    ])
    def test_streams_nondecreasing_nonnegative(self, kind, params):
        got = take(ArrivalSpec.make(kind, **params), 200, seed=3)
        assert all(t >= 0 for t in got)
        assert all(b >= a for a, b in zip(got, got[1:]))

    def test_bursty_validates_dwells(self):
        with pytest.raises(ValueError, match="burst_len"):
            ArrivalSpec.make("bursty", rate=10.0, burst_len=0.0)

    def test_diurnal_validates_envelope(self):
        with pytest.raises(ValueError, match="floor"):
            ArrivalSpec.make("diurnal", rate=10.0, floor=1.5)

    def test_diurnal_thins_the_offpeak(self):
        # with floor=0 the first half-cycle starts near rate 0: far fewer
        # arrivals land in [0, cycle/4) than in [cycle/4, cycle/2)
        spec = ArrivalSpec.make("diurnal", rate=2000.0, floor=0.0, cycle=1.0)
        stream = make_arrival_stream(spec, child_rng(11, "d"))
        got = []
        for t in stream:
            if t >= 0.5:
                break
            got.append(t)
        early = sum(1 for t in got if t < 0.25)
        late = len(got) - early
        assert late > 2 * early


class TestTrace:
    def test_literal_times_finite(self):
        spec = ArrivalSpec.make("trace", times="0.05;0.01;0.03")
        stream = make_arrival_stream(spec, np.random.default_rng(0))
        assert list(stream) == [0.01, 0.03, 0.05]  # sorted, then exhausted

    def test_single_instant_parses_as_float(self):
        spec = ArrivalSpec.parse("trace:times=0.25")
        stream = make_arrival_stream(spec, np.random.default_rng(0))
        assert list(stream) == [0.25]

    def test_loop_repeats_with_exact_phases(self):
        spec = ArrivalSpec.make("trace", times="0.01;0.04", loop=0.1)
        got = take(spec, 6)
        # phases are k*loop + t by multiplication: exact, no accumulation
        assert got == [k * 0.1 + t for k in range(3) for t in (0.01, 0.04)]

    def test_loop_must_contain_trace(self):
        spec = ArrivalSpec.make("trace", times="0.01;0.2", loop=0.1)
        with pytest.raises(ValueError, match="fit inside"):
            next(make_arrival_stream(spec, np.random.default_rng(0)))

    def test_needs_exactly_one_source(self):
        for params in ({}, {"times": "0.1", "path": "x.json"}):
            spec = ArrivalSpec.make("trace", **params)
            with pytest.raises(ValueError, match="exactly one"):
                next(make_arrival_stream(spec, np.random.default_rng(0)))

    def test_negative_instant_rejected(self):
        spec = ArrivalSpec.make("trace", times="-0.1;0.2")
        with pytest.raises(ValueError, match="negative"):
            next(make_arrival_stream(spec, np.random.default_rng(0)))

    def test_replay_from_logbook_dump(self, tmp_path, zcu_small, pd_small, rng):
        from repro.runtime import CedrRuntime, RuntimeConfig

        runtime = CedrRuntime(zcu_small.build(seed=0),
                              RuntimeConfig(scheduler="heft_rt", execute_kernels=False))
        runtime.start()
        for at in (0.0, 0.013, 0.021):
            runtime.submit(pd_small.make_instance("api", rng), at=at)
        runtime.seal()
        runtime.run()
        path = runtime.logbook.save(tmp_path / "logbook.json")

        spec = ArrivalSpec.make("trace", path=str(path))
        stream = make_arrival_stream(spec, np.random.default_rng(0))
        assert list(stream) == [0.0, 0.013, 0.021]

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "expected a JSON object, got list"),
        (_dump(apps=[{"app_id": 1, "name": "a", "mode": "api", "t_launch": 0.0,
                      "t_finish": None, "n_tasks": 0, "cancelled": False, "failed": False}]),
         r"apps\[0\]: missing columns \['t_arrival'\]"),
        (_dump(apps={"t_arrival": 0.1}), "apps: expected a list"),
        (_dump(apps=[]), "at least one arrival instant"),
        ('{"schema": 5, "apps": []}', "unsupported logbook schema 5"),
        ("{nope", "Expecting property name"),
    ])
    def test_malformed_replay_file_is_one_valueerror(self, tmp_path, text, message):
        """The replay file goes through ``Logbook.load``: valid JSON that is
        not a dump names the file and the offending row, no traceback type."""
        path = tmp_path / "replay.json"
        path.write_text(text, encoding="utf-8")
        spec = ArrivalSpec.make("trace", path=str(path))
        with pytest.raises(ValueError, match=message) as err:
            next(make_arrival_stream(spec, np.random.default_rng(0)))
        assert "replay.json" in str(err.value) or "arrival instant" in str(err.value)


class TestArrivalRate:
    def test_periodic_and_poisson(self):
        assert arrival_rate(ArrivalSpec.make("periodic", rate=100.0)) == 100.0
        assert arrival_rate(ArrivalSpec.make("poisson", period=0.01)) == 100.0

    def test_bursty_duty_cycle(self):
        spec = ArrivalSpec.make("bursty", rate=100.0, burst_len=0.02, idle_len=0.08)
        assert arrival_rate(spec) == pytest.approx(20.0)

    def test_diurnal_mean_envelope(self):
        spec = ArrivalSpec.make("diurnal", rate=100.0, floor=0.2)
        assert arrival_rate(spec) == pytest.approx(100.0 * (0.2 + 0.8 * 0.5))

    def test_trace_span_rate(self):
        spec = ArrivalSpec.make("trace", times="0.0;0.1;0.2")
        assert arrival_rate(spec) == pytest.approx(10.0)
        assert arrival_rate(ArrivalSpec.make("trace", times="0.5")) == 0.0

"""DAG JSON file I/O tests."""

import numpy as np
import pytest

from repro.dag import (
    DagBuilder,
    DagValidationError,
    load_program,
    load_spec,
    parse_dag,
    save_spec,
)


def kernel_only_spec():
    return {
        "name": "disk-app",
        "nodes": {
            "f": {"api": "fft", "params": {"n": 64}, "inputs": ["x"], "output": "X"},
            "i": {"api": "ifft", "params": {"n": 64}, "inputs": ["X"], "output": "y",
                  "after": ["f"]},
        },
    }


def test_save_load_roundtrip(tmp_path):
    path = tmp_path / "app.json"
    save_spec(path, kernel_only_spec())
    loaded = load_spec(path)
    assert loaded == kernel_only_spec()


def test_save_validates_before_writing(tmp_path):
    path = tmp_path / "bad.json"
    with pytest.raises(DagValidationError):
        save_spec(path, {"name": "bad", "nodes": {"n": {"api": "warp"}}})
    assert not path.exists()


def test_save_rejects_non_json_values(tmp_path):
    spec = kernel_only_spec()
    spec["nodes"]["f"]["params"]["n"] = np.int64(64)  # numpy scalar
    with pytest.raises(DagValidationError, match="JSON-serializable"):
        save_spec(tmp_path / "x.json", spec)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DagValidationError, match="not valid JSON"):
        load_spec(path)


def test_load_rejects_invalid_spec(tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text('{"name": "x", "nodes": {"n": {"api": "warp"}}}', encoding="utf-8")
    with pytest.raises(DagValidationError, match="unknown api"):
        load_spec(path)


def test_load_program_validates_once(tmp_path, monkeypatch):
    import repro.dag.app as app_module
    import repro.dag.io as io_module

    calls = []
    for module in (app_module, io_module):
        real = module.validate_spec
        monkeypatch.setattr(
            module, "validate_spec",
            lambda *args, real=real: calls.append(args) or real(*args),
        )
    path = save_spec(tmp_path / "app.json", kernel_only_spec())
    calls.clear()
    program = load_program(path)
    assert len(calls) == 1 and program.topo_order == ["f", "i"]
    path.write_text('{"name": "t", "nodes": {"a": {"api": "fft", "inputs": ["x"], '
                    '"output": "y", "after": ["ghost"]}}}', encoding="utf-8")
    with pytest.raises(DagValidationError, match="unknown node"):
        load_program(path)


def test_load_program_kernel_only_runs(tmp_path, rng):
    """A spec loaded from disk executes through the runtime untouched."""
    from repro.platforms import zcu102
    from repro.runtime import AppInstance, CedrRuntime, RuntimeConfig

    path = save_spec(tmp_path / "app.json", kernel_only_spec())
    program = load_program(path)
    data = rng.normal(size=64) + 1j * rng.normal(size=64)
    platform = zcu102(n_cpu=3, n_fft=1).build(seed=0)
    runtime = CedrRuntime(platform, RuntimeConfig(scheduler="rr"))
    runtime.start()
    app = AppInstance(name="disk", mode="dag", frame_mb=0.1, dag=program,
                      initial_state={"x": data})
    runtime.submit(app, at=0.0)
    runtime.seal()
    runtime.run()
    assert np.allclose(app.state["y"], data, atol=1e-9)


def test_load_program_with_cpu_op_needs_bindings(tmp_path):
    b = DagBuilder("withcpu")
    b.cpu("init", lambda s: None, 1e-6)
    spec, bindings = b.build_raw()
    path = save_spec(tmp_path / "c.json", spec)
    # timing-only load: allowed without bindings
    program = load_program(path)
    assert program.n_nodes == 1
    # explicit but incomplete bindings are rejected
    with pytest.raises(DagValidationError, match="binding"):
        load_program(path, bindings={})
    # correct bindings reattach
    program = load_program(path, bindings={"init": bindings["init"]})
    assert program.bindings["init"] is bindings["init"]


def test_builder_roundtrips_through_disk(tmp_path):
    """A generated PD-style spec survives the disk roundtrip bit-exactly."""
    b = DagBuilder("gen")
    prev = b.kernel("k0", "fft", {"n": 128, "batch": 2}, ["in0"], "out0")
    for i in range(1, 6):
        prev = b.kernel(f"k{i}", "ifft" if i % 2 else "fft",
                        {"n": 128, "batch": 2}, [f"out{i-1}"], f"out{i}", after=[prev])
    spec, _ = b.build_raw()
    loaded = load_spec(save_spec(tmp_path / "g.json", spec))
    assert parse_dag(loaded).topo_order == parse_dag(spec).topo_order

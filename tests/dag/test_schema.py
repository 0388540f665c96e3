"""DAG schema validation tests."""

import pytest

from repro.dag import DagValidationError, KNOWN_APIS, validate_spec


def minimal_spec(**node_overrides):
    node = {"api": "fft", "params": {"n": 64}, "inputs": ["x"], "output": "y"}
    node.update(node_overrides)
    return {"name": "t", "nodes": {"n0": node}}


def test_known_apis_cover_kernels_and_cpu_op():
    assert {"fft", "ifft", "zip", "gemm", "cpu_op"} <= set(KNOWN_APIS)


def test_minimal_valid_spec_passes():
    validate_spec(minimal_spec())


def test_spec_must_be_mapping():
    with pytest.raises(DagValidationError, match="mapping"):
        validate_spec([1, 2, 3])


def test_spec_needs_name():
    with pytest.raises(DagValidationError, match="name"):
        validate_spec({"nodes": {"a": {}}})


def test_spec_needs_nodes():
    with pytest.raises(DagValidationError, match="nodes"):
        validate_spec({"name": "x", "nodes": {}})


def test_unknown_api_rejected():
    with pytest.raises(DagValidationError, match="unknown api"):
        validate_spec(minimal_spec(api="quantum_fft"))


def test_kernel_node_needs_inputs():
    spec = minimal_spec()
    del spec["nodes"]["n0"]["inputs"]
    with pytest.raises(DagValidationError, match="inputs"):
        validate_spec(spec)


def test_kernel_node_needs_output():
    spec = minimal_spec()
    del spec["nodes"]["n0"]["output"]
    with pytest.raises(DagValidationError, match="output"):
        validate_spec(spec)


def test_dangling_edge_rejected():
    spec = minimal_spec(after=["ghost"])
    with pytest.raises(DagValidationError, match="unknown node"):
        validate_spec(spec)


def test_self_dependency_rejected():
    spec = minimal_spec(after=["n0"])
    with pytest.raises(DagValidationError, match="itself"):
        validate_spec(spec)


def test_cpu_op_requires_work_param():
    spec = {
        "name": "t",
        "nodes": {"c": {"api": "cpu_op", "params": {}}},
    }
    with pytest.raises(DagValidationError, match="work_1ghz"):
        validate_spec(spec)


def test_cpu_op_requires_binding_when_bindings_given():
    spec = {
        "name": "t",
        "nodes": {"c": {"api": "cpu_op", "params": {"work_1ghz": 1e-6}}},
    }
    validate_spec(spec)  # bindings omitted: allowed (timing-only specs)
    with pytest.raises(DagValidationError, match="binding"):
        validate_spec(spec, bindings={})


def test_output_key_race_rejected():
    spec = {
        "name": "t",
        "nodes": {
            "a": {"api": "fft", "params": {"n": 8}, "inputs": ["x"], "output": "y"},
            "b": {"api": "ifft", "params": {"n": 8}, "inputs": ["x"], "output": "y"},
        },
    }
    with pytest.raises(DagValidationError, match="both write"):
        validate_spec(spec)


def test_cycle_rejected():
    spec = {
        "name": "t",
        "nodes": {
            "a": {"api": "fft", "params": {"n": 8}, "inputs": ["x"], "output": "y",
                  "after": ["b"]},
            "b": {"api": "ifft", "params": {"n": 8}, "inputs": ["y"], "output": "z",
                  "after": ["a"]},
        },
    }
    with pytest.raises(DagValidationError, match="cycle"):
        validate_spec(spec)


def test_diamond_is_fine():
    spec = {
        "name": "diamond",
        "nodes": {
            "src": {"api": "fft", "params": {"n": 8}, "inputs": ["x"], "output": "a"},
            "l": {"api": "fft", "params": {"n": 8}, "inputs": ["a"], "output": "b",
                  "after": ["src"]},
            "r": {"api": "ifft", "params": {"n": 8}, "inputs": ["a"], "output": "c",
                  "after": ["src"]},
            "sink": {"api": "zip", "params": {"n": 8}, "inputs": ["b", "c"],
                     "output": "d", "after": ["l", "r"]},
        },
    }
    validate_spec(spec)


# --------------------------------------------------------------------- #
# malformed fields are refused at parse, naming the node and the key
# --------------------------------------------------------------------- #


def two_nodes(**b_overrides):
    """Nodes ``a`` and ``b`` - one-letter names, so a bare-string ``after``
    read letter by letter would find them."""
    spec = minimal_spec()
    spec["nodes"] = {
        "a": {"api": "fft", "params": {"n": 64}, "inputs": ["x"], "output": "y"},
        "b": {"api": "fft", "params": {"n": 64}, "inputs": ["y"], "output": "z"},
    }
    spec["nodes"]["b"].update(b_overrides)
    return spec


def test_bare_string_inputs_rejected():
    with pytest.raises(DagValidationError, match=r"^node 'n0' of 't' .*'inputs'.* got str$"):
        validate_spec(minimal_spec(inputs="xyz"))


def test_bare_string_after_naming_a_node_rejected():
    # read letter by letter, "a" was a valid dependency
    with pytest.raises(DagValidationError, match=r"^node 'b' of 't' 'after'.* got str$"):
        validate_spec(two_nodes(after="a"))


def test_bare_string_after_rejected_naming_the_key_not_a_letter():
    with pytest.raises(DagValidationError) as exc:
        validate_spec(two_nodes(after="xa"))
    assert str(exc.value) == "node 'b' of 't' 'after' must be a list of node names, got str"


@pytest.mark.parametrize("value", [-5.12e-06, -1, float("nan"), float("inf"), -float("inf")])
def test_negative_or_non_finite_param_rejected(value):
    with pytest.raises(DagValidationError, match=r"^node 'n0' of 't' params\['n'\] .*finite"):
        validate_spec(minimal_spec(params={"n": value}))


@pytest.mark.parametrize("value", [-5.12e-06, float("nan"), float("inf")])
def test_negative_or_non_finite_work_rejected(value):
    spec = {"name": "t", "nodes": {"c": {"api": "cpu_op", "params": {"work_1ghz": value}}}}
    with pytest.raises(DagValidationError, match=r"^node 'c' of 't' params\['work_1ghz'\]"):
        validate_spec(spec)


def test_lists_and_tuples_of_strings_stay_legal():
    validate_spec(two_nodes(after=["a"], inputs=["y"]))
    validate_spec(two_nodes(after=("a",), inputs=("y",)))
    validate_spec(minimal_spec(params={"n": 0, "batch": 2.5}))
    spec = {"name": "t", "nodes": {"c": {"api": "cpu_op", "params": {"work_1ghz": 0.0}}}}
    validate_spec(spec)

"""Core Registry facility: registration, lookup errors, lazy discovery."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.registry import Registry, RegistryError


def test_register_get_and_names():
    reg = Registry("widget")
    reg.register("alpha", 1)
    reg.register("beta", 2)
    assert reg.get("alpha") == 1
    assert reg.names() == ("alpha", "beta")
    assert len(reg) == 2
    assert list(reg) == ["alpha", "beta"]
    assert "alpha" in reg and "gamma" not in reg


def test_decorator_form_returns_object():
    reg = Registry("widget")

    @reg.register("thing")
    def factory():
        return 42

    assert factory() == 42  # decorator hands the object back unchanged
    assert reg.get("thing") is factory


def test_duplicate_name_raises():
    reg = Registry("widget")
    reg.register("alpha", 1)
    with pytest.raises(ValueError, match="widget 'alpha' registered twice"):
        reg.register("alpha", 2)
    assert reg.get("alpha") == 1


def test_replace_swaps_entry():
    reg = Registry("widget")
    reg.register("alpha", 1)
    reg.register("alpha", 2, replace=True)
    assert reg.get("alpha") == 2


def test_unknown_name_lists_entries_and_suggests():
    reg = Registry("scheduler")
    reg.register("etf", object())
    reg.register("eft", object())
    reg.register("heft_rt", object())
    with pytest.raises(RegistryError) as exc_info:
        reg.get("etv")
    message = str(exc_info.value)
    assert "unknown scheduler 'etv'" in message
    assert "available: eft, etf, heft_rt" in message
    assert "did you mean" in message


def test_unknown_name_in_empty_registry():
    reg = Registry("widget")
    with pytest.raises(RegistryError, match=r"\(none registered\)"):
        reg.get("anything")


def test_registry_error_is_keyerror_and_valueerror():
    reg = Registry("widget")
    with pytest.raises(KeyError):
        reg.get("nope")
    with pytest.raises(ValueError):
        reg.get("nope")
    try:
        reg.get("nope")
    except RegistryError as exc:
        # KeyError.__str__ would wrap the message in quotes; the override
        # keeps CLI error paths printing the plain sentence
        assert str(exc).startswith("unknown widget")


def test_lookup_normalization_default_lower():
    reg = Registry("widget")
    reg.register("RR", 1)
    assert reg.get("rr") == 1
    assert reg.get("Rr") == 1
    assert reg.names() == ("rr",)


def test_lookup_normalization_custom():
    reg = Registry("application", normalize=str.upper)
    reg.register("pd", 1)
    assert reg.get("PD") == 1
    assert reg.names() == ("PD",)


def test_unregister_removes_and_errors_on_unknown():
    reg = Registry("widget")
    reg.register("alpha", 1)
    assert reg.unregister("alpha") == 1
    assert "alpha" not in reg
    with pytest.raises(RegistryError):
        reg.unregister("alpha")


def test_create_instantiates():
    reg = Registry("widget")
    reg.register("pair", tuple)
    assert reg.create("pair") == ()


class _FakePoint:
    def __init__(self, name, obj=None, error=None):
        self.name = name
        self.value = f"fake_pkg:{name}"
        self._obj = obj
        self._error = error

    def load(self):
        if self._error is not None:
            raise self._error
        return self._obj


def test_entry_point_discovery_is_lazy_and_one_shot(monkeypatch):
    calls = []

    def fake_entry_points(*, group):
        calls.append(group)
        return [_FakePoint("plug", obj="LOADED")]

    monkeypatch.setattr(
        "importlib.metadata.entry_points", fake_entry_points
    )
    reg = Registry("widget", entry_point_group="repro.test_widgets")
    assert calls == []  # constructing (and registering) never scans
    reg.register("native", 1)
    assert "native" in reg and reg.get("native") == 1  # hits never scan
    assert calls == []
    assert reg.get("plug") == "LOADED"  # first miss triggers the scan
    assert calls == ["repro.test_widgets"]
    assert reg.names() == ("native", "plug")
    reg.get("plug")
    assert calls == ["repro.test_widgets"]  # scanned exactly once


def test_entry_point_broken_plugin_degrades_to_warning(monkeypatch):
    monkeypatch.setattr(
        "importlib.metadata.entry_points",
        lambda *, group: [
            _FakePoint("broken", error=ImportError("boom")),
            _FakePoint("fine", obj="OK"),
        ],
    )
    reg = Registry("widget", entry_point_group="repro.test_widgets")
    with pytest.warns(RuntimeWarning, match="broken"):
        assert reg.get("fine") == "OK"
    assert "broken" not in reg


def test_in_process_registration_wins_over_entry_point(monkeypatch):
    monkeypatch.setattr(
        "importlib.metadata.entry_points",
        lambda *, group: [_FakePoint("plug", obj="FROM_EP")],
    )
    reg = Registry("widget", entry_point_group="repro.test_widgets")
    reg.register("plug", "IN_PROCESS")
    assert reg.get("plug") == "IN_PROCESS"
    assert reg.names() == ("plug",)


def test_registries_without_group_never_scan(monkeypatch):
    def explode(*, group):  # pragma: no cover - must not be called
        raise AssertionError("scanned a group-less registry")

    monkeypatch.setattr("importlib.metadata.entry_points", explode)
    reg = Registry("widget")
    reg.register("alpha", 1)
    assert reg.names() == ("alpha",)
    with pytest.raises(RegistryError):
        reg.get("beta")


def test_importing_repro_discovers_nothing():
    """Importing the packages (the CLI included) leaves every entry-point
    registry's discovery pending and ``importlib.metadata`` unloaded: module
    level code looks names up only by hit (a membership test or ``get`` of a
    builtin), never by ``names()`` or a miss."""
    src = str(Path(repro.__file__).parents[1])
    code = (
        f"import json, sys; sys.path.insert(0, {src!r})\n"
        "import repro.experiments, repro.scenario, repro.corpus, repro.serve, repro.cli\n"
        "from repro.registry import Registry\n"
        "regs = {id(r): r for m in list(sys.modules.values())"
        " if m and m.__name__.startswith('repro')"
        " for r in vars(m).values() if isinstance(r, Registry)}\n"
        "grouped = [r for r in regs.values() if r.entry_point_group]\n"
        "print(json.dumps([len(grouped), sorted(r.kind for r in grouped if not r._pending_discovery),"
        " 'importlib.metadata' in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    n_grouped, scanned, metadata_loaded = json.loads(out.stdout)
    assert n_grouped == 7  # the seven axes of the table in repro.registry
    assert scanned == [] and not metadata_loaded

"""The pre-registry surfaces stay removed.

``make_scheduler()``, ``PAPER_SCHEDULERS`` / ``EXTRA_SCHEDULERS`` and the
CLI's ``APP_FACTORIES`` / ``PLATFORM_NAMES`` / ``FIGURE_IDS`` were
deprecated shims over the registries from PR 8 until no caller was left;
each old name is now simply absent (no PEP 562 hook answers for it), and
its replacement is the registry call beside it below.
"""

import pytest

import repro.cli
import repro.sched
import repro.sched.base
from repro.apps import APPS
from repro.experiments import available_figures
from repro.platforms import available_platforms
from repro.sched import SCHEDULERS, available_schedulers, extra_schedulers, paper_schedulers


def test_make_scheduler_is_gone():
    with pytest.raises(ImportError):
        from repro.sched import make_scheduler  # noqa: F401
    assert not hasattr(repro.sched.base, "make_scheduler")
    assert SCHEDULERS.create("RR").name == "rr"  # the replacement


def test_paper_schedulers_module_attr_is_gone():
    with pytest.raises(AttributeError):
        repro.sched.PAPER_SCHEDULERS
    assert paper_schedulers() == ("rr", "eft", "etf", "heft_rt")  # presentation order


def test_extra_schedulers_module_attr_is_gone():
    with pytest.raises(AttributeError):
        repro.sched.EXTRA_SCHEDULERS
    assert set(extra_schedulers()) == set(available_schedulers()) - set(paper_schedulers())


@pytest.mark.parametrize("name", ["APP_FACTORIES", "PLATFORM_NAMES", "FIGURE_IDS"])
def test_cli_registry_views_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(repro.cli, name)
    assert name not in vars(repro.cli)


def test_registries_answer_what_the_cli_views_did():
    assert set(APPS.names()) == {"PD", "TX", "RX", "LD", "TM"}
    assert APPS.get("PD").factory().name.startswith("PD")
    assert "zcu102" in available_platforms() and "jetson" in available_platforms()
    assert "fig5" in available_figures() and "saturation" in available_figures()


def test_no_module_level_getattr_hooks_remain():
    assert "__getattr__" not in vars(repro.cli)
    assert "__getattr__" not in vars(repro.sched)


def test_unknown_cli_attr_still_raises():
    with pytest.raises(AttributeError):
        repro.cli.NO_SUCH_THING

"""``repro figure --audit``: the audit is part of each cell's config.

An audited cell has its own sweep-cache key, so a warm unaudited cache
cannot answer an audited sweep, and the flag reaches ``--jobs`` pool
workers inside the cells they are handed - no environment variable
carries it.
"""

import os

import pytest

import repro.audit.invariants as invariants
from repro.audit import AuditError
from repro.cli import main

FIG5 = ["figure", "fig5", "--rates", "2", "--trials", "1"]


def test_an_audited_sweep_simulates_the_cells_an_unaudited_one_cached(tmp_path, capsys):
    cached = [*FIG5, "--cache-dir", str(tmp_path)]
    assert main(cached) == 0
    assert "cache     : 0 hits, 4 misses" in capsys.readouterr().out
    assert main([*cached, "--audit"]) == 0
    assert "cache     : 0 hits, 4 misses" in capsys.readouterr().out
    assert main([*cached, "--audit"]) == 0
    assert "cache     : 4 hits, 0 misses" in capsys.readouterr().out


@pytest.mark.no_auto_audit
def test_pool_workers_audit_the_cells_they_are_handed(monkeypatch, capsys):
    """A catalog check that always fires, and names the process it ran in
    and the ``REPRO_AUDIT`` it saw: an unaudited pooled sweep never runs
    it, an audited one fails with its violation from a worker process."""
    monkeypatch.delenv("REPRO_AUDIT", raising=False)

    def fires(book):
        yield invariants.AuditViolation(
            "probe", f"pid={os.getpid()} REPRO_AUDIT={os.environ.get('REPRO_AUDIT')}")

    probe = invariants.Invariant("probe", "fires on every audited run", fires)
    monkeypatch.setattr(invariants, "CATALOG", (*invariants.CATALOG, probe))
    pooled = [*FIG5, "--jobs", "2", "--no-cache"]
    assert main(pooled) == 0
    with pytest.raises(AuditError) as failed:
        main([*pooled, "--audit"])
    [violation] = failed.value.violations
    pid, env = violation.message.split()
    assert violation.code == "probe" and env == "REPRO_AUDIT=None"
    assert pid != f"pid={os.getpid()}"

"""repro.audit - the run-validation layer: every run self-verifying.

Two surfaces over one invariant catalog:

* :mod:`repro.audit.invariants` - eleven machine-verifiable properties
  of a finished run (causality, exactly-once, conservation under faults,
  PE support/exclusivity, capacity, clock/queue consistency, cost-row
  freshness), checked over a :class:`~repro.runtime.Logbook`, live or
  loaded from a saved dump.  An
  audited run (``RuntimeConfig(audit=True)`` / ``repro run --audit``)
  folds the catalog over its book at shutdown;
* :mod:`repro.audit.oracle` - differential validation: paired
  configurations (serial/jobs, cached/uncached) that must produce
  bit-identical ``RunResult``s, exposed as ``repro audit diff``.
"""

from .invariants import (
    CATALOG,
    AuditError,
    AuditReport,
    AuditViolation,
    Invariant,
    OnlineAuditor,
    audit_logbook,
)
from .oracle import (
    DEFAULT_VARIANTS,
    OracleReport,
    VariantOutcome,
    assert_identical,
    diff_results,
    diff_run,
    diff_serve,
)

__all__ = [
    "AuditViolation",
    "AuditError",
    "AuditReport",
    "Invariant",
    "CATALOG",
    "audit_logbook",
    "OnlineAuditor",
    "diff_results",
    "assert_identical",
    "diff_run",
    "diff_serve",
    "OracleReport",
    "VariantOutcome",
    "DEFAULT_VARIANTS",
]

"""repro.audit - the run-validation layer: every run self-verifying.

Two surfaces over one invariant catalog:

* :mod:`repro.audit.invariants` - eleven machine-verifiable properties
  of a finished run (causality, exactly-once, conservation under faults,
  PE support/exclusivity, capacity, clock/queue consistency, cost-row
  freshness), checked over an :class:`AuditView` built from a
  live runtime or a saved :class:`~repro.runtime.Logbook` dump.  An
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
    AuditView,
    AuditViolation,
    Invariant,
    OnlineAuditor,
    audit_logbook,
    audit_runtime,
    audit_view,
)
from .oracle import (
    DEFAULT_VARIANTS,
    OracleReport,
    VariantOutcome,
    assert_identical,
    diff_results,
    diff_run,
    diff_serve,
    diff_serve_results,
)

__all__ = [
    "AuditViolation",
    "AuditError",
    "AuditView",
    "AuditReport",
    "Invariant",
    "CATALOG",
    "audit_view",
    "audit_runtime",
    "audit_logbook",
    "OnlineAuditor",
    "diff_results",
    "diff_serve_results",
    "assert_identical",
    "diff_run",
    "diff_serve",
    "OracleReport",
    "VariantOutcome",
    "DEFAULT_VARIANTS",
]

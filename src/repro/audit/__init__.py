"""repro.audit - the run-validation layer: every run self-verifying.

:mod:`repro.audit.invariants` holds eleven machine-verifiable properties
of a finished run (causality, exactly-once, conservation under faults,
PE support/exclusivity, capacity, clock/queue consistency, cost-row
freshness), checked over a :class:`~repro.runtime.Logbook`, live or
loaded from a saved dump (``repro audit <dump>``).  An audited run
(``RuntimeConfig(audit=True)`` / ``repro run --audit``) folds the catalog
over its book at shutdown.
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

__all__ = [
    "AuditViolation",
    "AuditError",
    "AuditReport",
    "Invariant",
    "CATALOG",
    "audit_logbook",
    "OnlineAuditor",
]

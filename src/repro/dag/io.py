"""JSON file I/O for DAG application specs.

Baseline CEDR's application DAGs live on disk as JSON files and are
submitted by path over IPC.  This module provides that persistence layer
for the reproduction's spec format (see :mod:`repro.dag.schema`):
``save_spec`` / ``load_spec`` round-trip the JSON-able part of a DAG
application; the ``bindings`` (the shared-object function pointers) are by
nature not serializable, so loading takes an optional bindings mapping to
re-attach — exactly how the real system pairs a ``.json`` with a ``.so``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Mapping, Optional

from repro.atomic import atomic_write

from .app import DagProgram, parse_dag
from .schema import DagValidationError, validate_spec

__all__ = ["save_spec", "load_spec", "load_program"]


def save_spec(path: str | Path, spec: Mapping[str, Any], indent: int = 2) -> Path:
    """Validate and write *spec* as a JSON file; returns the path.

    The spec is validated *before* writing so no invalid DAG ever lands on
    disk, and the write is refused if the spec contains non-JSON values
    (e.g. ndarray parameters smuggled into ``params``).
    """
    validate_spec(spec)
    path = Path(path)
    try:
        text = json.dumps(spec, indent=indent, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise DagValidationError(f"spec is not JSON-serializable: {exc}") from exc
    with atomic_write(path) as fh:
        fh.write(text)
    return path


def load_spec(path: str | Path) -> dict[str, Any]:
    """Read and validate a spec JSON file."""
    spec = _read(path)
    validate_spec(spec)
    return spec


def _read(path: str | Path) -> Any:
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DagValidationError(f"{path} is not valid JSON: {exc}") from exc


def load_program(
    path: str | Path,
    bindings: Optional[Mapping[str, Callable]] = None,
) -> DagProgram:
    """Load a spec file and parse it into a submittable :class:`DagProgram`.

    *bindings* re-attaches the cpu_op callables (the shared-object half of
    a CEDR application).  Omitting it is fine for specs whose nodes are all
    kernels, or for timing-only runs where cpu_op bodies never execute —
    validation of binding presence happens at parse time only when
    bindings are supplied.  The spec is validated once, by the parse.
    """
    return parse_dag(_read(path), bindings)

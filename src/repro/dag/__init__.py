"""DAG-based CEDR application format: schema, parser, builder, transforms."""

from .app import DagProgram, parse_dag
from .builder import DagBuilder
from .collapse import collapse_subgraph
from .io import load_program, load_spec, save_spec
from .schema import KNOWN_APIS, DagValidationError, validate_spec

__all__ = [
    "DagProgram",
    "parse_dag",
    "DagBuilder",
    "collapse_subgraph",
    "save_spec",
    "load_spec",
    "load_program",
    "validate_spec",
    "DagValidationError",
    "KNOWN_APIS",
]

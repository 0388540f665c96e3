"""DAG-based CEDR application format: schema, parser, builder, transforms."""

from repro import surface

__getattr__, __dir__, __all__ = surface(globals(), {
    "app": ("DagProgram", "parse_dag"),
    "builder": ("DagBuilder",),
    "collapse": ("collapse_subgraph",),
    "io": ("save_spec", "load_spec", "load_program"),
    "schema": ("validate_spec", "DagValidationError", "KNOWN_APIS"),
})

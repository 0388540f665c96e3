"""repro.corpus - adversarial scenario corpus: generate, run, minimize.

The coverage tier above the audit catalog: instead of checking the 12
runtime invariants on scenarios we thought of, a seeded generator emits
scenarios we didn't - random app mixes, PE pools, arrival processes, and
fault storms, all as valid :class:`~repro.scenario.ScenarioSpec`
documents and all a pure function of ``(CorpusConfig, seed)``.  The
parity layer runs every registered scheduler over the same corpus cells
with the audit armed and reports dominance tables, metric
deltas, and per-invariant violation tallies; failing cells feed a
delta-debugging minimizer that shrinks the spec while the failure still
reproduces.  See docs/INTERNALS.md, "The adversarial scenario corpus".
"""

from .generator import CorpusConfig, generate_corpus, generate_spec
from .minimize import MinimizeResult, minimize_spec, write_artifacts
from .parity import CellOutcome, CorpusReport, run_cell, run_corpus

__all__ = [
    "CellOutcome",
    "CorpusConfig",
    "CorpusReport",
    "MinimizeResult",
    "generate_corpus",
    "generate_spec",
    "minimize_spec",
    "run_cell",
    "run_corpus",
    "write_artifacts",
]

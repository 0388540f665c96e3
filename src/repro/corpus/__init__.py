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

from repro import surface

__getattr__, __dir__, __all__ = surface(globals(), {
    "parity": ("CellOutcome", "CorpusReport", "run_cell", "run_corpus"),
    "generator": ("CorpusConfig", "generate_corpus", "generate_spec"),
    "minimize": ("MinimizeResult", "minimize_spec", "write_artifacts"),
})

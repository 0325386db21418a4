"""``repro lint`` -- an AST-based determinism & snapshot contract checker.

The dynamic test suite proves this repository's invariants -- per-seed
byte-identical dispatch digests, pickle-safe snapshot/restore -- *after*
a bug lands.  PR 6's ``is``-sentinel restore divergence was an instance
of a statically detectable pattern; this package turns that post-mortem,
and the seeded-entropy contract every golden digest rests on, into a
standing gate.

Layout:

* :mod:`repro.lint.engine` -- parsing, scoping, suppressions, reports
* :mod:`repro.lint.rules` -- :data:`~repro.lint.rules.RULES` (DET001,
  DET002, SNAP001), one module per hazard family
* :mod:`repro.lint.imports` -- static import closure (SNAP001's scope)
* the ``repro lint`` command is the ``lint`` row of :data:`repro.cli.VERBS`

``tests/test_lint.py`` runs the analyzer over ``src/`` in tier-1 (zero
unsuppressed findings is a test) and proves every rule non-vacuous
against seeded-violation fixtures.  Catalog, retired rules and
how-to-add-a-rule: ``docs/static-analysis.md``.
"""

from repro.lint.engine import (
    Finding,
    LintConfig,
    LintError,
    LintReport,
    run_lint,
)
from repro.lint.rules import RULES

__all__ = [
    "Finding",
    "LintConfig",
    "LintError",
    "LintReport",
    "RULES",
    "run_lint",
]

"""``repro lint`` -- an AST-based determinism & concurrency contract checker.

The dynamic test suite proves this repository's invariants -- per-seed
byte-identical dispatch digests, pickle-safe snapshot/restore,
flock-disciplined journal appenders -- *after* a bug lands.  Two shipped
bugs (PR 6's ``is``-sentinel restore divergence, PR 8's flock released
before buffered bytes flushed) were instances of statically detectable
patterns; this package turns those post-mortems into a standing gate.

Layout:

* :mod:`repro.lint.engine` -- parsing, scoping, suppressions, reports
* :mod:`repro.lint.rules` -- the rule registry (DET001, DET002, SNAP001,
  LOCK001, ASYNC001, WIRE001), one module per hazard family
* :mod:`repro.lint.imports` -- static import closure (SNAP001's scope)
* the ``repro lint`` command is the ``lint`` row of :data:`repro.cli.VERBS`

``tests/test_lint.py`` runs the analyzer over ``src/`` in tier-1 (zero
unsuppressed findings is a test) and proves every rule non-vacuous
against seeded-violation fixtures.  Catalog and how-to-add-a-rule:
``docs/static-analysis.md``.
"""

from repro.lint.engine import (
    Finding,
    LintConfig,
    LintError,
    LintReport,
    run_lint,
)
from repro.lint.rules import all_rules

__all__ = [
    "Finding",
    "LintConfig",
    "LintError",
    "LintReport",
    "all_rules",
    "run_lint",
]

"""The ``repro lint`` rules: :data:`RULES` maps each rule id to its check.

A check is a generator ``check(module, project)`` yielding ``(node,
message)`` pairs; the engine files each one as a
:class:`~repro.lint.engine.Finding` under the rule's id.  Each rule's
motivating incident is its row in ``docs/static-analysis.md``, and
``tests/test_lint.py`` pairs every id here with a fires and a clean
fixture.
"""

from repro.lint.rules.determinism import det001, det002
from repro.lint.rules.snapshot import snap001

__all__ = ["RULES"]

RULES = {"DET001": det001, "DET002": det002, "SNAP001": snap001}

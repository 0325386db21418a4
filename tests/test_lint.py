"""Tests for ``repro lint`` -- the static determinism/concurrency checker.

Three layers, mirroring the consistency oracle's seeded-violation
pattern:

* the **tier-1 gate**: linting ``src/repro`` with the default config
  yields zero unsuppressed findings, so a PR that introduces a banned
  pattern fails this file;
* **non-vacuity**: every registered rule fires on a seeded-violation
  fixture under ``tests/fixtures/lint/`` and stays silent on the
  paired clean fixture -- a rule that cannot catch its own motivating
  incident is a bug here, not a shrug;
* **machinery**: suppression comments, CLI exit codes and JSON output.

A hazard whose whole target is one function is a direct test of that
function instead (``docs/static-analysis.md``, "Retired rules").
"""

from __future__ import annotations

import configparser
import json
import re
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.lint import RULES, LintConfig, LintError, run_lint
from repro.lint.engine import load_project

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
SRC = Path(repro.__file__).parent
REPO_ROOT = Path(__file__).parent.parent

#: fixture scopes -- the same rules, re-pointed at the seeded violations
FIXTURE_CONFIG = LintConfig(
    determinism_scopes=(
        "det001_fires",
        "det001_clean",
        "det002_fires",
        "det002_clean",
        "suppressed",
    ),
    snapshot_roots=("snap_pkg.snapshot",),
)

#: rule id -> fixture that must make it fire (non-vacuity)
FIRES_FIXTURES = {
    "DET001": "det001_fires.py",
    "DET002": "det002_fires.py",
    "SNAP001": "snap_pkg",
}

#: rule id -> fixture that must stay silent (no false positives)
CLEAN_FIXTURES = {
    "DET001": "det001_clean.py",
    "DET002": "det002_clean.py",
}


def lint_fixture(name):
    return run_lint([FIXTURES / name], config=FIXTURE_CONFIG)


def findings_of(rule_id, name):
    return [f for f in lint_fixture(name).findings if f.rule == rule_id]


# ------------------------------------------------------------- tier-1 gate


class TestRepoIsClean:
    def test_src_has_zero_unsuppressed_findings(self):
        report = run_lint([SRC])
        assert not report.findings, "\n".join(
            f.format() for f in report.findings
        )
        # the run is real: it saw the whole package and every rule
        assert report.files_checked > 80
        assert set(report.rules_run) == set(RULES)

    def test_every_src_suppression_states_a_reason(self):
        """``ignore[RULE]`` in src/ must carry a ``--`` justification."""
        pattern = re.compile(r"repro-lint:\s*ignore\[[^\]]+\](.*)")
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                match = pattern.search(line)
                if match and "--" not in match.group(1):
                    offenders.append(f"{path}:{lineno}")
        assert not offenders, offenders

    def test_src_suppressions_are_load_bearing(self):
        """Every in-tree suppression silences a finding that would fire."""
        report = run_lint([SRC])
        assert len(report.suppressed) == 1
        suppressed_paths = {Path(f.path).name for f in report.suppressed}
        assert suppressed_paths == {"process.py"}


# ------------------------------------------------------- rule non-vacuity


class TestRuleFixtures:
    def test_registry_and_fixture_map_agree(self):
        assert set(FIRES_FIXTURES) == set(RULES)

    @pytest.mark.parametrize("rule_id", sorted(FIRES_FIXTURES))
    def test_rule_fires_on_seeded_violation(self, rule_id):
        report = lint_fixture(FIRES_FIXTURES[rule_id])
        assert report.findings, f"{rule_id} is vacuous on its fixture"
        assert {f.rule for f in report.findings} == {rule_id}

    @pytest.mark.parametrize("rule_id", sorted(CLEAN_FIXTURES))
    def test_rule_silent_on_clean_fixture(self, rule_id):
        report = lint_fixture(CLEAN_FIXTURES[rule_id])
        assert not report.findings, "\n".join(
            f.format() for f in report.findings
        )

    def test_every_rule_documents_an_incident(self):
        """Each rule has a catalog row in the docs naming its incident."""
        catalog = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
        catalog = catalog.split("## Rule catalog")[1].split("\n## ")[0]
        rows = {
            row.split("`")[1]: row.split(" | ")[-1]
            for row in catalog.splitlines()
            if row.startswith("| `")
        }
        assert set(rows) == set(RULES)
        assert all(len(incident) > 40 for incident in rows.values()), rows

    def test_det001_catches_each_entropy_shape(self):
        findings = findings_of("DET001", "det001_fires.py")
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 13
        assert "process-global PRNG" in messages
        assert "os.urandom" in messages  # Random(), Random(), SystemRandom(seed)
        assert "wall clock" in messages
        # found although the module says ``import os.path``, not ``import os``
        assert "os.environ" in messages and "os.getenv" in messages
        assert "bare set" in messages

    def test_det002_spares_dunder_hash(self):
        assert not findings_of("DET002", "det002_clean.py")
        assert len(findings_of("DET002", "det002_fires.py")) == 2

    def test_snap001_reconstructs_the_pr6_bug(self):
        """The PR 6 sentinel-`is` shape fires inside the closure only."""
        report = lint_fixture("snap_pkg")
        by_file = {}
        for finding in report.findings:
            by_file.setdefault(Path(finding.path).name, []).append(finding)
        # restore.py: `is` sentinel, `is not` sentinel, `is 0`
        assert len(by_file.pop("restore.py")) == 3
        # snapshot.py has no identity compares; unrelated.py is OUTSIDE
        # the import closure, so its sentinel-`is` must not fire
        assert not by_file, by_file
        messages = " ".join(f.message for f in report.findings)
        assert "pickle boundary" in messages
        assert "_COMMITTING" in messages or "string sentinel" in messages


# ----------------------------------------------------------- suppressions


class TestSuppressions:
    def test_inline_and_multi_rule_suppressions(self):
        report = lint_fixture("suppressed.py")
        # one DET002 remains: its comment names the wrong rule id
        assert len(report.findings) == 1
        assert report.findings[0].rule == "DET002"
        assert "WRONG rule" in FIXTURES.joinpath(
            "suppressed.py"
        ).read_text().splitlines()[report.findings[0].line - 1]
        # hash-bucket DET002, plus DET001+DET002 on the comma line
        assert len(report.suppressed) == 3

    def test_suppression_is_per_line(self):
        """A waiver on line N must not silence the same rule elsewhere."""
        # nothing in det002_fires.py is silenced by another file's waivers
        assert len(findings_of("DET002", "det002_fires.py")) == 2


# -------------------------------------------------------------------- CLI


@pytest.fixture()
def seeded_tree(tmp_path):
    """A ``repro.sim`` package in a scratch tree, so DET001's *default*
    scope applies: ``bad.py`` reads the environment, ``ok.py`` is seeded."""
    sim = tmp_path / "repro" / "sim"
    sim.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (sim / "__init__.py").write_text("")
    (sim / "bad.py").write_text("import os\n\n\ndef mode():\n    return os.getenv('MODE')\n")
    (sim / "ok.py").write_text("import random\n\n\ndef rng(seed):\n    return random.Random(seed)\n")
    return tmp_path


class TestCli:
    def test_exit_one_on_findings(self, capsys, seeded_tree):
        assert main(["lint", str(seeded_tree)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "bad.py" in out
        assert "1 finding(s), 4 file(s), 3 rule(s)" in out

    def test_exit_zero_on_clean(self, capsys, seeded_tree):
        assert main(["lint", str(seeded_tree / "repro" / "sim" / "ok.py")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_json_output(self, capsys, seeded_tree):
        assert main(["lint", str(seeded_tree), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"DET001"}
        assert payload["files_checked"] == 4
        assert payload["rules_run"] == sorted(RULES)
        finding = payload["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message"}

    def test_missing_path_is_exit_two(self, capsys):
        assert main(["lint", "definitely/not/a/path.py"]) == 2
        assert "no such file" in capsys.readouterr().err


# ------------------------------------------------------------- engine bits


class TestEngine:
    def test_unparsable_file_raises(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(LintError, match="cannot parse"):
            run_lint([bad])

    def test_snapshot_closure_covers_the_restore_path(self):
        """The real closure reaches the protocol/coordinator modules."""
        project = load_project([SRC])
        closure = project.snapshot_closure()
        for expected in (
            "repro.sim.snapshot",
            "repro.cluster.federation",
            "repro.core.clc",
            "repro.baselines",
        ):
            assert expected in closure
        # serve/ and analysis/ never contribute pickled state
        assert not any(name.startswith("repro.serve") for name in closure)
        assert not any(name.startswith("repro.analysis") for name in closure)

    def test_fixture_closure_is_scoped(self):
        project = load_project([FIXTURES / "snap_pkg"], FIXTURE_CONFIG)
        closure = project.snapshot_closure()
        assert "snap_pkg.snapshot" in closure
        assert "snap_pkg.restore" in closure
        assert "snap_pkg.unrelated" not in closure


# ------------------------------------------------------------ mypy ratchet

#: the strict-allowlist floor: mypy.ini must keep (at least) these
#: modules fully checked.  Growing the list is encouraged; shrinking it
#: fails here.
MYPY_STRICT_FLOOR = (
    "repro.network.message",
    "repro.network.fabric",
    "repro.network.topology",
    "repro.sim.trace_digest",
    "repro.serve.stats",
    "repro.core.rounds",
    "repro.core.recovery_line",
    "repro.experiments.cache",
    "repro.analysis.oracle",
)


class TestMypyRatchet:
    def test_allowlist_can_only_grow(self):
        config = configparser.ConfigParser()
        read = config.read(REPO_ROOT / "mypy.ini")
        assert read, "mypy.ini is missing"
        assert config.getboolean("mypy", "ignore_errors"), (
            "global ignore_errors=True is the allowlist mechanism; "
            "strictness is opted into per module"
        )
        for module in MYPY_STRICT_FLOOR:
            section = f"mypy-{module}"
            assert config.has_section(section), (
                f"{section} left the mypy strict allowlist -- the "
                "allowlist may only grow (add modules, never remove)"
            )
            assert not config.getboolean(section, "ignore_errors"), (
                f"{section} is no longer strict"
            )

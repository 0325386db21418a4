"""The docs suite must exist, stay internally linked, and match the CLI.

Runs the same checker the CI ``docs`` job uses
(``tools/check_markdown_links.py``), so a broken link fails tier-1
locally before it fails CI.
"""

from __future__ import annotations

import configparser
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = REPO_ROOT / "docs"


def test_docs_suite_exists():
    assert (DOCS / "architecture.md").is_file()
    assert (DOCS / "sweeps.md").is_file()


def test_the_package_version_has_one_literal():
    """``pyproject.toml`` reads ``repro.__version__`` instead of restating it
    (the two literals had drifted apart: 1.2.0 installed, 1.0.0 reported)."""
    import tomllib

    pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }


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


def test_readme_links_the_docs():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/architecture.md" in readme
    assert "docs/sweeps.md" in readme


def test_markdown_links_resolve():
    proc = subprocess.run(
        [sys.executable, "tools/check_markdown_links.py", "README.md", "docs"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout


def test_architecture_doc_mentions_every_experiment():
    from repro.experiments import registry

    text = (DOCS / "architecture.md").read_text()
    for name in registry.names():
        assert name in text, f"docs/architecture.md misses experiment {name!r}"


def test_sweeps_doc_covers_the_cli_surface():
    text = (DOCS / "sweeps.md").read_text()
    for flag in ("--scale", "--jobs", "--set", "--no-cache", "--cache-dir", "--seed",
                 "--json", "--list"):
        assert flag in text, f"docs/sweeps.md misses flag {flag}"


def test_checker_catches_a_broken_link(tmp_path):
    bad = tmp_path / "bad.md"
    bad.write_text("[missing](./no-such-file.md)\n")
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_markdown_links.py"), str(bad)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "broken link" in proc.stderr

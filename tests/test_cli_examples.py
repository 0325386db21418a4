"""Smoke tests for the CLI and the example scripts."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.oracle import ConsistencyOracle, attach_oracle
from repro.cli import VERBS, main, parser
from repro.cluster.federation import Federation
from repro.config.loader import load_scenario
from tests.conftest import inject_send

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SRC = Path(__file__).resolve().parent.parent / "src"


def _example_env() -> dict:
    """Subprocess env with ``src/`` importable, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _write_scenario(tmp_path, mtbf=None):
    """A single-file scenario: 2 clusters of 2 nodes, chatty, CLCs every minute."""
    scenario = {
        "topology": {
            "clusters": [{"name": "c0", "nodes": 2}, {"name": "c1", "nodes": 2}],
            "inter_links": [{"between": [0, 1], "latency": 1.5e-4, "bandwidth": 1e8}],
            "mtbf": mtbf,
        },
        "application": {
            "clusters": [
                {"mean_compute": 20.0, "send_probabilities": [0.8, 0.2]},
                {"mean_compute": 20.0, "send_probabilities": [0.2, 0.8]},
            ],
            "total_time": 200.0,
        },
        "timers": {"clc_periods": [60.0, 60.0]},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path


@pytest.fixture
def scenario_file(tmp_path):
    return _write_scenario(tmp_path)


@pytest.fixture
def faulty_scenario_file(tmp_path):
    """The same scenario with MTBF-driven crashes, so rollbacks happen."""
    return _write_scenario(tmp_path, mtbf=40.0)


class TestCli:
    def test_parser_builds(self):
        args = parser(None).parse_args(["--scenario", "x.json", "--seed", "9"])
        assert args.scenario == "x.json"
        assert args.seed == 9

    @pytest.mark.parametrize("verb", sorted(v for v in VERBS if v))
    def test_every_verb_has_help(self, verb, capsys):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: repro {verb} ")

    def test_unknown_verb_names_the_verbs(self, capsys):
        assert main(["swep", "table1"]) == 2
        err = capsys.readouterr().err
        assert err == (
            "repro: unknown command 'swep' "
            "(choose from: ablate, serve, sweep)\n"
        )

    def test_retired_lint_verb_is_unknown(self, capsys):
        assert main(["lint", "src"]) == 2
        assert "unknown command 'lint'" in capsys.readouterr().err

    def test_scenario_run(self, scenario_file, capsys):
        rc = main(["--scenario", str(scenario_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "protocol=hc3i" in out
        assert "committed CLCs" in out
        assert out.splitlines()[-1].startswith("consistency: consistent: ")

    def test_json_output(self, scenario_file, capsys):
        rc = main(["--scenario", str(scenario_file), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["protocol"] == "hc3i"
        assert payload["duration"] == 200.0
        assert "0->0" in payload["messages"]

    def test_protocol_override(self, scenario_file, capsys):
        rc = main([
            "--scenario", str(scenario_file), "--protocol", "independent", "--json"
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["protocol"] == "independent"

    def test_until_flag(self, scenario_file, capsys):
        rc = main(["--scenario", str(scenario_file), "--until", "50", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["duration"] == 50.0

    @pytest.mark.parametrize("until", ["nan", "inf", "-5"])
    def test_until_is_a_finite_time_at_least_zero(self, scenario_file, until, capsys):
        """``nan`` and ``inf`` once ran forever (periodic timers keep the
        queue full), and ``-5`` ran no event yet printed a verdict."""
        with pytest.raises(SystemExit) as exc:
            parser(None).parse_args(["--scenario", str(scenario_file), f"--until={until}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --until: expected a finite number >= 0, got {until!r}" in err

    def test_missing_files_rejected(self):
        with pytest.raises(SystemExit):
            main(["--topology", "only-this.json"])

    def test_three_file_invocation(self, tmp_path, capsys):
        (tmp_path / "topo.json").write_text(json.dumps({
            "clusters": [{"name": "c0", "nodes": 2}, {"name": "c1", "nodes": 2}],
            "inter_links": [{"between": [0, 1], "latency": 1.5e-4, "bandwidth": 1e8}],
        }))
        (tmp_path / "app.json").write_text(json.dumps({
            "clusters": [
                {"mean_compute": 30.0, "send_probabilities": [0.9, 0.1]},
                {"mean_compute": 30.0, "send_probabilities": [0.1, 0.9]},
            ],
            "total_time": 120.0,
        }))
        (tmp_path / "timers.json").write_text(json.dumps({"clc_periods": [60, 60]}))
        rc = main([
            "--topology", str(tmp_path / "topo.json"),
            "--application", str(tmp_path / "app.json"),
            "--timers", str(tmp_path / "timers.json"),
        ])
        assert rc == 0

    def test_trace_output(self, scenario_file, capsys):
        rc = main(["--scenario", str(scenario_file), "--trace", "protocol"])
        assert rc == 0
        assert "clc_commit" in capsys.readouterr().out


class TestCliVerdict:
    """``hc3i-sim`` states the consistency oracle's verdict on every run."""

    @pytest.mark.parametrize("protocol", ["hc3i", "independent", "pessimistic-log"])
    def test_verdict_line(self, faulty_scenario_file, capsys, protocol):
        rc = main(["--scenario", str(faulty_scenario_file), "--protocol", protocol])
        assert rc == 0
        lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("consistency: ")
        ]
        assert len(lines) == 1
        match = re.match(r"consistency: consistent: (\d+) messages \(", lines[0])
        assert match and int(match.group(1)) > 0

    @pytest.mark.parametrize("protocol", ["hc3i", "independent", "pessimistic-log"])
    def test_json_carries_the_verdict(self, faulty_scenario_file, capsys, protocol):
        rc = main([
            "--scenario", str(faulty_scenario_file), "--protocol", protocol, "--json"
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        verdict = payload["consistency"]
        assert verdict["ok"] is True
        assert verdict["violations"] == []
        assert verdict["messages"] > 0
        assert payload["stats"]["failures/injected"] >= 1
        # pessimistic-log re-executes one node: no cluster ever rolls back
        assert (verdict["erasures"] >= 1) == (protocol != "pessimistic-log")

    def test_violation_exits_1_and_names_the_message(
        self, scenario_file, capsys, monkeypatch
    ):
        """A send nothing accounts for, seeded into the oracle's trace."""
        real_check = ConsistencyOracle.check

        def seeded_check(oracle, allow_in_flight=True):
            now = oracle.federation.sim.now
            inject_send(oracle.federation, 999999, time=now - 10.0, arrival=now - 9.0)
            return real_check(oracle, allow_in_flight)

        monkeypatch.setattr(ConsistencyOracle, "check", seeded_check)
        assert main(["--scenario", str(scenario_file)]) == 1
        out = capsys.readouterr().out
        assert "consistency: INCONSISTENT (1 violations):" in out
        assert "[lost] msg 999999 (c0 -> c1" in out

        assert main(["--scenario", str(scenario_file), "--json"]) == 1
        verdict = json.loads(capsys.readouterr().out)["consistency"]
        assert verdict["ok"] is False
        [[kind, detail]] = verdict["violations"]
        assert kind == "lost" and "msg 999999" in detail

    def test_until_mid_run_excuses_in_flight(self, scenario_file, capsys):
        """Stopping while a message is on the wire is not a lost message."""
        scenario = load_scenario(scenario_file, scenario_file, scenario_file)
        fed = Federation(
            scenario.topology, scenario.application, scenario.timers,
            protocol=scenario.protocol, seed=scenario.seed,
        )
        oracle = attach_oracle(fed)
        fed.run()
        send = min(
            (s for sends in oracle.recorded()[0].values() for s in sends),
            key=lambda s: s.time,
        )
        on_the_wire = (send.time + send["arrival"]) / 2

        rc = main([
            "--scenario", str(scenario_file), "--until", repr(on_the_wire), "--json"
        ])
        assert rc == 0
        verdict = json.loads(capsys.readouterr().out)["consistency"]
        assert verdict["ok"] is True
        assert verdict["in_flight"] == 1
        assert verdict["delivered"] == verdict["messages"] - 1


@pytest.mark.parametrize(
    "script",
    [
        "quickstart.py",
        "failure_recovery.py",
        "garbage_collection.py",
        "code_coupling_pipeline.py",
        "protocol_comparison.py",
        "config_files.py",
    ],
)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=_example_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()

"""Self-test of the benchmark, at ``--smoke`` sizes: ``python -m pytest bench -q``.

Checks that ``BENCHMARK.json`` and what the benchmark emits name the same
things, that the seed reaches the inputs, that each failure detector can
fail, that spans nest, and that ``compare.py`` tells a slowdown from noise.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys

import pytest

import compare
import harness

harness.require_sources()

import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = harness.load_spec()


def run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "run.py"), "--smoke", *args],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def layers_run(tmp_path_factory) -> dict:
    """One smoke run of every workload with the ladder and the traced repetition."""
    out = tmp_path_factory.mktemp("bench") / "run.json"
    proc = run_bench("--layers", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text())


def test_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert SPEC["paths"] == ["bench"]


def test_every_named_metric_is_emitted_and_vice_versa(layers_run):
    assert list(layers_run["workloads"]) == list(harness.WORKLOADS)
    for workload, result in layers_run["workloads"].items():
        assert set(result["end_to_end"]) == set(harness.metric_units(SPEC, "end_to_end"))
        assert set(result["per_layer"]) == set(harness.metric_units(SPEC, "per_layer"))
        assert result["failed"] == 0, (workload, result["failures"])
        assert result["per_layer"]["golden_mismatches"] == 0
        assert all(value > 0 for value in result["end_to_end"].values())
    # every per-layer metric is measured (non-zero) on at least one workload
    for name in harness.metric_units(SPEC, "per_layer"):
        values = [r["per_layer"][name] for r in layers_run["workloads"].values()]
        if name not in ("golden_mismatches", "serve.rejected_429", "count.gc_rounds"):
            assert any(values), name
    for key in ("python", "nproc", "load_1min_start", "load_1min_end", "git_commit", "seed"):
        assert key in layers_run["env"]


def test_workloads_stress_the_layers_they_were_chosen_for(layers_run):
    layers = {name: r["per_layer"] for name, r in layers_run["workloads"].items()}
    paper = layers["paper_eval"]
    assert paper["share.network"] + paper["share.core"] + paper["share.cluster"] > paper["share.app"]
    assert layers["app_traffic"]["count.app_msgs"] > 10 * layers["app_traffic"]["count.protocol_msgs"]
    assert layers["families_faulty"]["count.rollbacks"] > 0
    assert layers["families_faulty"]["share.baselines"] > 0
    assert layers["serve_points"]["serve.hot_ratio"] >= 0.99
    assert layers["serve_points"]["serve.computed_ratio"] > 0
    assert layers["serve_points"]["serve.disk_ratio"] > 0  # the flushed keys fall to disk


def test_driver_form_prints_exactly_the_declared_metrics():
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench("--workload", "sweep_points", "--seed", "3", "--seconds", "1",
                         "--trace", str(trace))
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        units = harness.metric_units(SPEC, group)
        assert {k: v["unit"] for k, v in line["metrics"].items()} == units
        assert "only checked against each other" in proc.stdout  # seed 3 is not pinned


def test_a_different_seed_changes_the_inputs():
    for cls in workloads.WORKLOAD_CLASSES.values():
        assert cls(7, True).inputs() == cls(7, True).inputs()
        assert cls(7, True).inputs() != cls(8, True).inputs(), cls.name


def test_a_tampered_expected_entry_fails_the_run(tmp_path):
    expected = json.loads(harness.EXPECTED_PATH.read_text())
    expected["smoke"]["app_traffic"]["events"] += 1
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    proc = run_bench("--workload", "app_traffic", "--expected", str(tampered))
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert line["correct"] is False and line["failed"] > 0
    assert "pinned" in proc.stdout


@pytest.fixture
def server():
    workload = workloads.ServePoints(harness.DEFAULT_SEED, smoke=True)
    workload.setup()
    try:
        yield workload
    finally:
        workload.close()


def test_a_non_200_response_is_a_failure(server):
    failures: list = []
    server._warm(failures)
    assert failures == []
    server.paths[0] = "/experiments/no-such-experiment/points"
    server._slice("hot", failures)
    assert any("status 404" in failure for failure in failures)


def test_a_wrong_tier_response_is_a_failure(server):
    failures: list = []
    server._warm(failures)
    server._slice("hot", failures)
    assert failures == []
    # a new key moves the journal watermark and flushes the hot tier: the
    # next reads come from disk, which phase `hot` does not allow
    conn = server._connect()
    assert server._get(conn, server._path(next(server._fresh)))[1] == "computed"
    conn.close()
    server._slice("hot", failures)
    assert any("tier 'disk'" in failure for failure in failures)


def test_spans_nest(layers_run):
    for workload, result in layers_run["workloads"].items():
        spans = json.loads((harness.ROOT / result["trace_file"]).read_text())
        assert spans, workload
        by_id = {span["id"]: span for span in spans}
        assert len(by_id) == len(spans)
        for span in spans:
            assert span["end"] >= span["start"]
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        for span_id, self_time in harness.self_times(spans).items():
            duration = by_id[span_id]["end"] - by_id[span_id]["start"]
            assert -1e-9 <= self_time <= duration + 1e-9
        assert "repetition" in {span["name"] for span in spans}


def _synthetic_runs(scale: float = 1.0) -> list:
    runs = []
    for jitter in (0.99, 1.0, 1.01):
        runs.append({
            "env": {"python": "3", "nproc": 2, "smoke": False, "seconds": 12.0,
                    "min_reps": 5, "seed": 7},
            "workloads": {"paper_eval": {
                "end_to_end": {"setup_s": 0.4 * jitter, "work_per_s": 150000.0 * jitter * scale,
                               "peak_rss_mb": 45.0},
                "failed": 0,
                "verification": {"events": 321152, "result_sha256": "abc"},
            }},
        })
    return runs


#: the verdict tests fix their own bounds, so retuning BENCHMARK.json cannot blunt them
TEN_PERCENT = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.10},
    ]
}


def test_compare_passes_an_identical_pair_and_flags_a_slowdown():
    rows, problems = compare.compare(_synthetic_runs(), _synthetic_runs(), SPEC, same_tree=True)
    assert problems == [] and {row["verdict"] for row in rows} == {"ok"}

    rows, problems = compare.compare(
        _synthetic_runs(), _synthetic_runs(0.8), TEN_PERCENT, same_tree=False
    )
    verdicts = {row["metric"]: row["verdict"] for row in rows}
    assert verdicts == {"setup_s": "ok", "work_per_s": "worse", "peak_rss_mb": "ok"}
    assert any("work_per_s" in problem for problem in problems)


def test_compare_reports_wide_spread_as_unresolved_and_catches_changed_counts():
    noisy = _synthetic_runs()
    for run, factor in zip(noisy, (0.8, 1.0, 1.2)):
        run["workloads"]["paper_eval"]["end_to_end"]["work_per_s"] = 150000.0 * factor
    rows, _ = compare.compare(_synthetic_runs(), noisy, TEN_PERCENT, same_tree=False)
    assert {r["metric"]: r["verdict"] for r in rows}["work_per_s"] == "unresolved"

    changed = copy.deepcopy(_synthetic_runs())
    changed[0]["workloads"]["paper_eval"]["verification"]["events"] += 1
    _, problems = compare.compare(_synthetic_runs(), changed, SPEC, same_tree=True)
    assert any("events" in problem for problem in problems)
    changed[0]["workloads"]["paper_eval"]["failed"] = 3
    _, problems = compare.compare(_synthetic_runs(), changed, SPEC, same_tree=True)
    assert any("failed operations rose" in problem for problem in problems)

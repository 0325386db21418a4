"""Tests for the experiment harness at reduced scale.

Each experiment must produce the paper's qualitative *shape* even in small
runs; the full-scale numbers are held by ``tests/test_paper_fidelity.py``.
"""

import pytest

from repro.experiments import registry
from repro.experiments.golden import golden_overrides
from repro.experiments.registry import resolve_overrides
from repro.experiments.runner import run_experiment

HOUR = 3600.0

# Reduced scale used everywhere in this module: 10x fewer nodes, 1/5 the
# duration -> runs in well under a second each.
SMALL = {"nodes": 10, "total_time": 2 * HOUR}


@pytest.mark.parametrize("total_time", [60.0, 600.0])
def test_every_experiment_returns_every_point_on_a_short_run(total_time):
    """A run too short for a failure still reduces to a result: ``mtbf`` once
    raised ``KeyError: 'total'`` on a run that never rolled back."""
    for name in registry.names():
        experiment = registry.get(name)
        accepted = experiment.grid_parameters()
        overrides = golden_overrides(experiment)
        if accepted is None or "total_time" in accepted:
            overrides["total_time"] = total_time
        grid = experiment.build_grid(overrides)
        points = [experiment.point(params) for params in grid]
        experiment.reduce(grid, points)
        if name == "mtbf":
            assert all(
                point["lost_total"] == 0.0 for point in points if not point["failures"]
            )


#: grid keys that set how many nodes a cluster (or pipeline stage) has
NODE_COUNT_KEYS = ("nodes", "nodes_per_stage", "nodes_per_cluster")

#: list-valued grid keys, each with the elements just outside its domain
#: (none: the key has no bound to cross); a delay is an x value, so neither
#: ``None`` nor ``"inf"`` (an infinite period elsewhere) is one
LIST_KEYS = {
    "mtbfs": (0,),
    "message_counts": (-5,),
    "timers_min": (0,),
    "delays_min": (0, None, "inf"),
    "periods_h": (0,),
    "seeds": (),
    "failure_times": (-5,),
    "degrees": (-1,),
    "shapes": ([0, 4],),
    "protocols": ("nope",),
}


def _edge_draws():
    """``(experiment, key, value)``: each node-count key the grid takes at 1
    and 2, and ``total_time`` at 1 s and 60 s, one key at a time over tiny;
    and just outside the domain: node counts at 0, ``total_time`` at 0 and
    -1, ``gc_period`` at 0, ``inter_messages`` at -5, a list holding one element outside its key's
    domain, an empty list, and a string where the grid iterates a list."""
    for experiment in registry.all_experiments():
        taken = experiment.grid_parameters()
        draws = [(key, n) for key in NODE_COUNT_KEYS if key in taken for n in (0, 1, 2)]
        draws += [("total_time", t) for t in (0, -1, 1.0, 60.0) if "total_time" in taken]
        draws += [("gc_period", 0)] if "gc_period" in taken else []
        draws += [("inter_messages", -5)] if "inter_messages" in taken else []
        lists = [key for key in LIST_KEYS if key in taken]
        draws += [(key, [element]) for key in lists for element in LIST_KEYS[key]]
        draws += [(key, []) for key in lists]
        draws += [("protocols", "hc3i")] if "protocols" in taken else []
        for key, value in draws:
            yield pytest.param(
                experiment.name, key, value, id=f"{experiment.name}-{key}={value}"
            )


@pytest.mark.parametrize("name, key, value", list(_edge_draws()))
def test_an_edge_value_renders_or_is_refused_naming_its_key(name, key, value):
    """A value at the edge of a grid key's domain either yields a rendered
    result or is refused at grid-build time with a ``ValueError`` that
    names the key -- never a traceback from inside a point or the reducer
    (``baselines`` at ``nodes=1`` once raised ``IndexError`` for its victim
    node 1, ``overhead`` at ``total_time=1.0`` ``ZeroDivisionError``, and
    ``table2`` at ``gc_period=0`` built its grid, then failed in the point;
    ``mtbf`` at ``mtbfs=[0]`` likewise, and ``delays_min=[]`` silently ran
    the default axis; ``mtbf`` at ``protocols=["nope"]`` and ``scaling`` at
    ``shapes=[[0, 4]]`` failed inside the point)."""
    experiment = registry.get(name)
    overrides = resolve_overrides(experiment, "tiny", sets={key: value})
    try:
        experiment.build_grid(overrides)
    except ValueError as exc:
        assert f"{key}={value!r}" in str(exc)
        return
    assert value != [], "an empty list ran the default in its place"
    assert run_experiment(experiment, overrides=overrides).result.render()


class TestTable1:
    def test_counts_scale_with_workload(self):
        exp = run_experiment("table1", {"seed": 1, **SMALL}).result
        measured = {(row[0], row[1]): row[2] for row in exp.rows}
        # intra-cluster flows dominate by ~an order of magnitude
        assert measured[("Cluster 0", "Cluster 0")] > 10 * measured[("Cluster 0", "Cluster 1")]
        assert measured[("Cluster 1", "Cluster 1")] > 10 * measured[("Cluster 1", "Cluster 0")]

    def test_directional_asymmetry(self):
        exp = run_experiment("table1", {"seed": 1, **SMALL}).result
        measured = {(row[0], row[1]): row[2] for row in exp.rows}
        # 0->1 carries ~13x more than 1->0 in the paper
        assert measured[("Cluster 0", "Cluster 1")] > measured[("Cluster 1", "Cluster 0")]

    def test_render_contains_table(self):
        exp = run_experiment("table1", {"seed": 1, **SMALL}).result
        text = exp.render()
        assert "Cluster 0" in text and "Paper" in text


class TestFig6Fig7:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_experiment(
            "fig6-fig7", {"delays_min": [5, 15, 30, 60], "seed": 2, **SMALL}
        ).result

    def test_unforced_decreases_with_delay(self, sweep):
        unforced = sweep.series["c0 unforced"]
        assert unforced[0] > unforced[-1]
        assert all(a >= b for a, b in zip(unforced, unforced[1:]))

    def test_unforced_tracks_total_over_delay(self, sweep):
        for delay, unforced in zip(sweep.xs, sweep.series["c0 unforced"]):
            upper = (2 * HOUR) / (delay * 60.0)
            assert unforced <= upper + 1

    def test_forced_c0_roughly_constant(self, sweep):
        """Fig. 6: forced CLCs in c0 are caused by the sparse 1->0 flow and
        do not scale with the timer."""
        forced = sweep.series["c0 forced"]
        assert max(forced) - min(forced) <= 2

    def test_c1_never_unforced(self, sweep):
        assert all(v == 0 for v in sweep.series["c1 unforced"])

    def test_c1_forced_proportional_to_c0_clcs(self, sweep):
        """Fig. 7: cluster 1's forced CLCs follow cluster 0's CLC count."""
        c0_total = [
            u + f + 1
            for u, f in zip(sweep.series["c0 unforced"], sweep.series["c0 forced"])
        ]
        c1_forced = sweep.series["c1 forced"]
        # at this scale only a handful of 0->1 messages exist, so we check
        # the weak form of Fig. 7's proportionality: non-increasing along
        # the sweep and bounded by cluster 0's CLC count (each c0 CLC can
        # force at most one c1 CLC per subsequent message)
        assert c1_forced[0] >= c1_forced[-1]
        for total, forced in zip(c0_total, c1_forced):
            assert forced <= total + 2


class TestFig8:
    def test_c0_insensitive_to_c1_timer(self):
        exp = run_experiment("fig8", {"delays_min": [15, 30, 60], "seed": 3, **SMALL}).result
        c0_total = exp.series["c0 total"]
        assert max(c0_total) - min(c0_total) <= 2
        c1_total = exp.series["c1 total"]
        assert c1_total[0] >= c1_total[-1]


class TestFig9:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_experiment(
            "fig9", {"message_counts": [10, 60, 110], "seed": 4, **SMALL}
        ).result

    def test_c0_forced_grows_fast(self, sweep):
        forced = sweep.series["c0 forced"]
        assert forced[-1] > forced[0]
        assert forced[-1] >= 3 * max(1, forced[0])

    def test_total_grows_with_traffic(self, sweep):
        totals = sweep.series["c0 total"]
        assert totals[-1] > totals[0]

    def test_measured_messages_track_targets(self, sweep):
        # x axis is the target count at paper scale; measured counts scale
        # by (10 nodes * 2h) / (100 nodes * 10h) = 1/50... times 10/100
        # nodes and 2/10 hours -> expect ~target * 0.02, loosely checked
        for target, measured in zip(sweep.xs, sweep.series["msgs 1->0"]):
            assert measured <= target


class TestTables2And3:
    def test_gc_two_clusters_shape(self):
        exp = run_experiment("table2", {"gc_period": 0.5 * HOUR, "seed": 5, **SMALL}).result
        assert len(exp.rows) >= 3
        for row in exp.rows:
            _, b0, a0, b1, a1 = row
            assert a0 <= b0 and a1 <= b1
            assert a0 <= 3 and a1 <= 3

    def test_gc_three_clusters_shape(self):
        exp = run_experiment("table3", {"gc_period": 0.5 * HOUR, "seed": 5, **SMALL}).result
        assert len(exp.rows) >= 3
        for row in exp.rows:
            for before, after in zip(row[1::2], row[2::2]):
                assert after <= before
                assert after <= 3

    @pytest.mark.parametrize("name", ["table2", "table3"])
    def test_a_run_that_ends_before_the_first_gc_says_so(self, name):
        """At ``--scale small`` the 2 h run ends before the first 2 h GC: no
        empty table beside the paper's numbers, no "needed log entries: 0"."""
        overrides = resolve_overrides(registry.get(name), "small")
        exp = run_experiment(name, overrides).result
        text = exp.render()
        assert not exp.rows
        assert "not evaluated at this scale: the 2 h run ends before the first GC" in text
        assert "paper reference" not in text and "needed" not in text

    @pytest.mark.parametrize("name", ["table2", "table3"])
    def test_a_run_past_the_first_gc_shows_its_rows(self, name):
        overrides = resolve_overrides(
            registry.get(name), "small", sets={"total_time": 4 * HOUR}
        )
        exp = run_experiment(name, overrides).result
        text = exp.render()
        assert len(exp.rows) == 1
        assert "paper reference" in text and "not evaluated" not in text

    def test_no_gc_reference_accumulates(self):
        exp = run_experiment("no-gc", {"seed": 5, **SMALL}).result
        for _cluster, stored, states, _peak in exp.rows:
            assert stored >= 4
            assert states == 2 * stored  # neighbour replication doubles


class TestAblations:
    def test_transitive_never_worse(self):
        exp = run_experiment(
            "ablation-transitive", {"nodes_per_stage": 8, "total_time": 2 * HOUR, "seed": 6}
        ).result
        by_protocol = {row[0]: row[1] for row in exp.rows}
        assert by_protocol["hc3i-transitive"] <= by_protocol["hc3i"]
        assert by_protocol["cic-always"] >= by_protocol["hc3i"]

    def test_cic_always_forces_per_message(self):
        exp = run_experiment(
            "ablation-transitive", {"nodes_per_stage": 8, "total_time": 2 * HOUR, "seed": 6}
        ).result
        rows = {row[0]: row for row in exp.rows}
        assert rows["cic-always"][1] == rows["cic-always"][3]  # forced == msgs

    def test_logging_ablation_scope(self):
        exp = run_experiment(
            "ablation-logging", {"nodes": 6, "total_time": 2 * HOUR, "seed": 7}
        ).result
        with_log, without_log = exp.rows
        # without logs at least as many clusters roll back per failure
        assert without_log[3] >= with_log[3]
        # and only the with-log variant replays
        assert with_log[4] >= 0 and without_log[4] == 0

    def test_baseline_comparison_rows(self):
        exp = run_experiment("baselines", {"nodes": 6, "total_time": 2 * HOUR, "seed": 8}).result
        protocols = [row[0] for row in exp.rows]
        assert protocols == [
            "hc3i", "global-coordinated", "independent", "pessimistic-log"
        ]
        by_protocol = {row[0]: row for row in exp.rows}
        # global coordination always rolls both clusters back
        assert by_protocol["global-coordinated"][3] == 2.0
        # pessimistic logging logs bytes, others' sender logs are smaller
        assert by_protocol["pessimistic-log"][5] > by_protocol["global-coordinated"][5]

    def test_gc_period_tradeoff(self):
        exp = run_experiment(
            "ablation-gc-period",
            {"periods_h": [0.5, 2, None], "nodes": 10, "total_time": 2 * HOUR, "seed": 9},
        ).result
        peaks = [row[1] for row in exp.rows]
        # less frequent GC -> (weakly) higher peak storage; none -> highest
        assert peaks[0] <= peaks[-1]
        removed = [row[4] for row in exp.rows]
        assert removed[-1] == 0  # GC off removes nothing

    def test_replication_sweep(self):
        exp = run_experiment(
            "ablation-replication",
            {"degrees": (0, 1, 2), "nodes": 6, "total_time": HOUR, "seed": 10},
        ).result
        tolerated = [row[1] for row in exp.rows]
        assert tolerated == [0, 1, 2]
        replicas = [row[4] for row in exp.rows]
        assert replicas[0] == 0
        assert replicas[1] > 0
        assert replicas[2] == 2 * replicas[1]

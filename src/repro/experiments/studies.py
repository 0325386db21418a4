"""The study table: variants x one workload x one failure schedule.

The paper argues for HC3I by comparing protocol families on one workload
under one failure schedule (§2.2/§6), and leaves several design choices
unquantified (§3.2 forced-CLC rule, §3.3 sender-side logging, §5.4 GC
period, §7 transitive DDV and replication degree).  Every such comparison
has the same shape, so each is one :class:`Study` row in :data:`STUDIES`:

* a workload builder and its arguments,
* a variant axis of ``(label, protocol, protocol_options, workload overrides)``,
* an optional failure schedule (fractions of the run + victims),
* metric columns ``(header, metric, rounding)`` naming :data:`METRICS` entries,
* the paper's claim the table is read against.

One grid builder, one point function and one reducer serve every row;
adding a study is adding a row (``docs/sweeps.md`` walks through one).
``repro ablate hc3i`` is a view (:func:`component_importance`) over the
``ablation-components`` row.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

from repro.analysis.rollback_cost import RollbackCostReport, rollback_costs
from repro.app.workloads import (
    TOTAL_TIME,
    pipeline_workload,
    table1_workload,
    table2_workload,
)
from repro.cluster.federation import Federation, FederationResults
from repro.config.timers import HOUR, MINUTE
from repro.experiments.common import ExperimentResult, run_federation
from repro.experiments.registry import Experiment, register
from repro.network.message import NodeId
from repro.sim.trace import TraceLevel

__all__ = [
    "ABLATION_METRICS",
    "METRICS",
    "STUDIES",
    "Study",
    "Variant",
    "component_importance",
    "render_importance_markdown",
    "study_point",
    "study_reduce",
]

#: workload builders a row can name (grid points carry the name, not the function)
WORKLOADS = {
    "table1": table1_workload,
    "table2": table2_workload,
    "pipeline": pipeline_workload,
}


class Variant(NamedTuple):
    """One entry of a study's variant axis."""

    #: first-column value of the variant's table row
    label: Union[str, int]
    protocol: str = "hc3i"
    protocol_options: Optional[dict] = None
    #: workload-builder arguments this variant overrides
    workload: Optional[dict] = None


@dataclass(frozen=True)
class Study:
    """One row of the study table; see the module docstring."""

    name: str
    title: str
    artifact: str
    #: ``ExperimentResult`` name and description; the description is a
    #: string, or a function of the first point's workload arguments
    heading: str
    description: Union[str, Callable[[dict], str]]
    #: key into :data:`WORKLOADS`, plus the builder arguments that are fixed
    workload: str
    workload_args: dict
    #: grid kwargs forwarded to the builder, ``name -> default``; ``rename``
    #: maps a kwarg to the builder's name for it (``--scale`` says ``nodes``)
    scale: dict
    #: the variant axis: a tuple, or a function of the grid kwargs
    variants: Union[tuple, Callable[[dict], tuple]]
    #: header of the label column (and x label when ``series`` is set)
    axis: str
    #: ``(header, metric, rounding digits or None)`` per table column
    columns: tuple
    #: the paper's claims the table is read against
    paper: dict
    rename: dict = field(default_factory=dict)
    #: further grid kwargs, ``name -> default``: what the ``variants``
    #: function reads, and ``failure_times`` where the crash times are settable
    axis_kwargs: dict = field(default_factory=dict)
    #: failure schedule: ``(fraction of total_time, (cluster, node))`` each;
    #: a ``failure_times`` grid kwarg, where declared, replaces the fractions
    failures: tuple = ()
    #: metrics also returned as plot series over the variant labels
    series: tuple = ()
    #: metrics a point records without showing them in a column
    extra_metrics: tuple = ()
    #: a note appended to the result, computed from it
    note: Optional[Callable[[ExperimentResult], str]] = None
    scaled: bool = False

    def grid_defaults(self) -> dict:
        """The grid's keyword arguments and their defaults, in order."""
        return {**self.axis_kwargs, **self.scale, "seed": 42}

    def metrics(self) -> list:
        """Every metric a point of this study records, columns first."""
        names = [metric for _header, metric, _digits in self.columns]
        names += [m for m in (*self.series, *self.extra_metrics) if m not in names]
        return names

    def grid(self, kwargs: dict) -> list:
        """One self-contained grid point per variant."""
        builder_args = dict(self.workload_args)
        for name in self.scale:
            builder_args[self.rename.get(name, name)] = kwargs[name]
        failures = []
        if self.failures:
            times = list(kwargs.get("failure_times") or ()) or [
                fraction * kwargs["total_time"] for fraction, _victim in self.failures
            ]
            if len(times) > len(self.failures):
                raise ValueError(
                    f"study {self.name!r} names {len(self.failures)} victims; "
                    f"got {len(times)} failure times"
                )
            failures = [
                [at, list(victim)]
                for at, (_fraction, victim) in zip(times, self.failures)
            ]
        variants = self.variants(kwargs) if callable(self.variants) else self.variants
        metrics = self.metrics()
        return [
            {
                "label": variant.label,
                "protocol": variant.protocol,
                "protocol_options": variant.protocol_options,
                "workload": self.workload,
                "workload_args": {**builder_args, **(variant.workload or {})},
                "failures": failures,
                "metrics": metrics,
                "seed": kwargs["seed"],
            }
            for variant in variants
        ]

    def experiment(self) -> Experiment:
        """The registry triple serving this row."""
        signature = inspect.Signature(
            [
                inspect.Parameter(name, inspect.Parameter.KEYWORD_ONLY, default=default)
                for name, default in self.grid_defaults().items()
            ]
        )

        def grid(**kwargs) -> list:
            bound = signature.bind(**kwargs)
            bound.apply_defaults()
            return self.grid(bound.arguments)

        # what Experiment.grid_parameters reads: the row's kwargs, not **kwargs
        grid.__signature__ = signature

        def reduce(grid: list, points: list) -> ExperimentResult:
            return study_reduce(self, grid, points)

        return Experiment(
            name=self.name,
            title=self.title,
            artifact=self.artifact,
            grid=grid,
            point=study_point,
            reduce=reduce,
            scaled=self.scaled,
        )


# --------------------------------------------------------------------------
# metrics: what one finished run can be asked


class Run(NamedTuple):
    """What a metric extractor reads: one finished federation."""

    fed: Federation
    results: FederationResults
    costs: RollbackCostReport


def _clusters(run: Run) -> range:
    return range(run.fed.topology.n_clusters)


def _clc_total(kind: str) -> Callable[[Run], int]:
    return lambda run: sum(run.results.clc_counts(c)[kind] for c in _clusters(run))


def _inter_cluster_messages(run: Run) -> int:
    return sum(
        run.results.app_messages(i, j)
        for i in _clusters(run)
        for j in _clusters(run)
        if i != j
    )


def _log_bytes(run: Run) -> int:
    """Receiver-side (pessimistic) plus sender-side (optimistic) log volume."""
    return run.results.counter("pessimistic/log_bytes") + sum(
        run.results.clusters[c].get("log_bytes", 0) or 0 for c in _clusters(run)
    )


def _freeze_ms(run: Run) -> float:
    freeze = run.results.stats.get("global/freeze_time")
    return freeze["mean"] * 1e3 if isinstance(freeze, dict) else 0.0


def _peak_stored(run: Run) -> int:
    gauges = (run.results.stats.get(f"clc/c{c}/stored") for c in _clusters(run))
    return max(
        (int(gauge["max"]) for gauge in gauges if isinstance(gauge, dict)), default=0
    )


def _gc_messages(run: Run) -> int:
    return sum(
        run.results.counter(f"net/protocol/{kind}")
        for kind in ("gc_request", "gc_response", "gc_collect", "gc_local")
    )


#: named metric extractors over one finished run
METRICS: dict = {
    "checkpoints": _clc_total("total"),
    "forced": _clc_total("forced"),
    "inter_msgs": _inter_cluster_messages,
    "failures": lambda run: run.costs.failures,
    "rollbacks": lambda run: run.costs.rollbacks,
    "mean_clusters": lambda run: run.costs.mean_clusters_per_failure,
    "replays": lambda run: run.costs.replays,
    "lost_work": lambda run: run.costs.lost_work_node_seconds,
    "log_bytes": _log_bytes,
    "freeze_ms": _freeze_ms,
    "stored": lambda run: sum(run.results.stored_clcs(c) for c in _clusters(run)),
    "stored_c0": lambda run: run.results.stored_clcs(0),
    "stored_c1": lambda run: run.results.stored_clcs(1),
    "peak_stored": _peak_stored,
    "clcs_removed": lambda run: run.results.counter("gc/clcs_removed"),
    "gc_msgs": _gc_messages,
    "replica_msgs": lambda run: run.results.counter("net/protocol/replica"),
    # the fabric aggregates bytes per message class only, so replica volume
    # is read as the protocol-byte total
    "protocol_bytes": lambda run: run.results.counter("net/bytes/protocol"),
    "faults_tolerated": lambda run: run.fed.storage[0].max_tolerated_faults(),
    "states_c0": lambda run: run.fed.storage[0].states_held_by(
        0, run.results.stored_clcs(0)
    ),
}


# --------------------------------------------------------------------------
# the one point function and the one reducer


def study_point(params: dict) -> dict:
    """Run one variant of one study; returns ``{metric: value}``."""
    topology, application, timers = WORKLOADS[params["workload"]](
        **params["workload_args"]
    )
    failures = [(at, NodeId(*victim)) for at, victim in params["failures"]]
    fed, results = run_federation(
        topology,
        application,
        timers,
        protocol=params["protocol"],
        protocol_options=params["protocol_options"],
        seed=params["seed"],
        # rollback_costs groups rollbacks into failure episodes off the
        # protocol trace; without failures there is nothing to group
        trace_level=TraceLevel.PROTOCOL if failures else TraceLevel.NONE,
        failures=failures,
    )
    run = Run(fed, results, rollback_costs(fed))
    return {metric: METRICS[metric](run) for metric in params["metrics"]}


def study_reduce(study: Study, grid: list, points: list) -> ExperimentResult:
    """Assemble a study's table (and series) from its points, in grid order."""
    labels = [params["label"] for params in grid]
    rows = [
        (
            label,
            *(
                point[metric] if digits is None else round(point[metric], digits)
                for _header, metric, digits in study.columns
            ),
        )
        for label, point in zip(labels, points)
    ]
    description = study.description
    if callable(description):
        description = description(grid[0]["workload_args"])
    result = ExperimentResult(
        name=study.heading,
        description=description,
        headers=[study.axis, *(header for header, _metric, _digits in study.columns)],
        rows=rows,
        paper=dict(study.paper),
    )
    if study.series:
        result.x_label = study.axis
        result.xs = labels
        result.series = {
            metric: [point[metric] for point in points] for metric in study.series
        }
    if study.note is not None:
        result.notes.append(study.note(result))
    return result


# --------------------------------------------------------------------------
# ranked views


def component_importance(result: ExperimentResult, metric: str = "lost_work") -> dict:
    """Ranked leave-one-out importance from an ``ablation-components`` result.

    Importance of a component = metric(without it) - metric(baseline):
    removing something load-bearing makes the metric worse (positive
    delta for cost metrics), so the largest delta ranks first.  A
    negative delta flags a component that *hurt* on this workload.
    """
    if metric not in result.series:
        raise KeyError(
            f"unknown ablation metric {metric!r}; "
            f"choose from {sorted(result.series)}"
        )
    values = result.series[metric]
    baseline_label, baseline = result.xs[0], values[0]
    entries = []
    for label, value in zip(result.xs[1:], values[1:]):
        component = label[3:] if label.startswith("no ") else label
        delta = value - baseline
        entries.append(
            {
                "component": component,
                "config": label,
                "value": value,
                "delta": delta,
                "harmful": delta < 0,
            }
        )
    entries.sort(key=lambda e: (-e["delta"], e["component"]))
    for rank, entry in enumerate(entries, 1):
        entry["rank"] = rank
    return {
        "metric": metric,
        "baseline_config": baseline_label,
        "baseline_value": baseline,
        "components": entries,
    }


def render_importance_markdown(ranking: dict) -> str:
    """Markdown component-importance report for one :func:`component_importance`."""
    metric = ranking["metric"]
    lines = [
        f"# HC3I component importance (metric: `{metric}`)",
        "",
        f"Baseline `{ranking['baseline_config']}`: "
        f"{ranking['baseline_value']:g} {metric}",
        "",
        "| rank | component | without it | delta | verdict |",
        "| --- | --- | --- | --- | --- |",
    ]
    for entry in ranking["components"]:
        if entry["delta"] > 0:
            verdict = "load-bearing (removal costs)"
        elif entry["delta"] < 0:
            verdict = "harmful on this workload"
        else:
            verdict = "neutral here"
        lines.append(
            f"| {entry['rank']} | {entry['component']} | {entry['value']:g} "
            f"| {entry['delta']:+g} | {verdict} |"
        )
    lines += [
        "",
        "Importance = metric(without component) - metric(baseline); the",
        "largest increase ranks first.",
    ]
    return "\n".join(lines)


def _importance_note(result: ExperimentResult) -> str:
    ranking = component_importance(result)
    return "importance (lost-work delta when removed): " + ", ".join(
        f"{entry['component']} {entry['delta']:+.1f}" for entry in ranking["components"]
    )


def _lost_work_ranking_note(result: ExperimentResult) -> str:
    ranked = sorted(zip(result.xs, result.series["lost_work"]), key=lambda lw: lw[1])
    return "ranking by lost work: " + " < ".join(
        f"{label} ({value:.0f})" for label, value in ranked
    )


# --------------------------------------------------------------------------
# the table

#: the Table 1 code-coupling pair with both CLC timers at 20 minutes
_COUPLED_20MIN = {"clc_period_0": 20 * MINUTE, "clc_period_1": 20 * MINUTE}

#: one crash in each cluster: the recovering cluster and its peer both matter
_TWO_FAILURES = ((0.45, (0, 1)), (0.8, (1, 1)))

#: metrics ``repro ablate --metric`` can rank by
ABLATION_METRICS = (
    "lost_work",
    "checkpoints",
    "forced",
    "mean_clusters",
    "log_bytes",
    "stored",
)

_DEFAULT_GC_PERIODS_H = (0.5, 1, 2, 4, None)

STUDIES = (
    Study(
        name="baselines",
        title="Baseline comparison -- HC3I vs §2.2/§6 protocol families",
        artifact="§2.2/§6",
        heading="Baseline comparison -- HC3I vs §2.2/§6 protocol families",
        description=(
            "Same workload, same failure schedule; checkpoints taken, "
            "rollback scope, lost work, log volume and freeze time."
        ),
        workload="table1",
        workload_args={**_COUPLED_20MIN, "messages_1_to_0": 103},
        scale={"nodes": 20, "total_time": 4 * HOUR},
        variants=tuple(
            Variant(protocol, protocol)
            for protocol in ("hc3i", "global-coordinated", "independent", "pessimistic-log")
        ),
        axis_kwargs={"failure_times": None},
        failures=_TWO_FAILURES,
        axis="protocol",
        columns=(
            ("checkpoints", "checkpoints", None),
            ("failures", "failures", None),
            ("clusters rolled/failure", "mean_clusters", 2),
            ("lost node-seconds", "lost_work", 1),
            ("log bytes", "log_bytes", None),
            ("freeze ms (mean)", "freeze_ms", 3),
        ),
        paper={
            "global": "not viable at federation scale (§2.2)",
            "independent": "domino effect (§2.2)",
            "pessimistic-log": "1-node rollback but logs everything + PWD (§6)",
        },
    ),
    Study(
        name="protocol-tournament",
        title="Protocol tournament -- all registered families, one workload",
        artifact="§2.2/§6 extension",
        heading="Protocol tournament -- every family, one workload",
        description=(
            "3-stage pipeline workload, identical failure schedule; rollback "
            "scope, lost work and logging cost per checkpointing family."
        ),
        # the pipeline keeps inter-cluster traffic flowing at every scale, so
        # the families' dependency handling differentiates them (table1 at
        # tiny scale exchanges almost no inter-cluster messages)
        workload="pipeline",
        workload_args={"n_stages": 3, "skip_probability": 0.02},
        scale={"nodes": 20, "total_time": 4 * HOUR},
        rename={"nodes": "nodes_per_stage"},
        # every family in the protocol registry, clc-cic once per predicate
        variants=(
            Variant("hc3i", "hc3i"),
            Variant("global-coordinated", "global-coordinated"),
            Variant("independent", "independent"),
            Variant("pessimistic-log", "pessimistic-log"),
            Variant("cic-always", "cic-always"),
            Variant("min-process", "min-process"),
            Variant("clc-cic/bcs", "clc-cic", {"predicate": "bcs"}),
            Variant("clc-cic/bcs-aftersend", "clc-cic", {"predicate": "bcs-aftersend"}),
        ),
        axis_kwargs={"failure_times": None},
        failures=_TWO_FAILURES,
        axis="protocol",
        columns=(
            ("checkpoints", "checkpoints", None),
            ("clusters rolled/failure", "mean_clusters", 2),
            ("lost node-seconds", "lost_work", 1),
            ("replays", "replays", None),
            ("log bytes", "log_bytes", None),
        ),
        series=("checkpoints", "mean_clusters", "lost_work", "log_bytes"),
        extra_metrics=("failures",),
        note=_lost_work_ranking_note,
        paper={
            "scope": "post-paper extension: the §2.2/§6 comparison over the "
            "full protocol registry"
        },
        scaled=True,
    ),
    Study(
        name="ablation-transitive",
        title="Ablation -- SN vs transitive DDV vs always-force (§7)",
        artifact="§7",
        heading="Ablation -- dependency tracking (SN vs transitive DDV vs always-force)",
        description=lambda workload_args: (
            f"{workload_args['n_stages']}-stage pipeline (Figure 1 model); forced "
            "CLCs summed over all clusters."
        ),
        workload="pipeline",
        workload_args={"skip_probability": 0.02},
        scale={"nodes_per_stage": 20, "n_stages": 4, "total_time": 2 * HOUR},
        variants=tuple(
            Variant(protocol, protocol)
            for protocol in ("hc3i", "hc3i-transitive", "cic-always")
        ),
        axis="protocol",
        columns=(
            ("forced CLCs", "forced", None),
            ("total CLCs", "checkpoints", None),
            ("inter-cluster msgs", "inter_msgs", None),
        ),
        paper={
            "hypothesis": "§7: transitivity should take fewer forced checkpoints; "
            "§3.2: always-force takes useless ones"
        },
    ),
    Study(
        name="ablation-logging",
        title="Ablation -- sender-side message logging (§3.3)",
        artifact="§3.3",
        heading="Ablation -- sender-side message logging (§3.3)",
        description=(
            "Identical failures with and without the optimistic sender log; "
            "without it the sender's cluster must roll back so its messages "
            "are regenerated."
        ),
        workload="table1",
        workload_args={**_COUPLED_20MIN, "messages_1_to_0": 103},
        scale={"nodes": 20, "total_time": 4 * HOUR},
        variants=(
            Variant("with logging (paper)", protocol_options={"replay_enabled": True}),
            Variant("without logging", protocol_options={"replay_enabled": False}),
        ),
        axis_kwargs={"failure_times": None},
        failures=_TWO_FAILURES,
        axis="variant",
        columns=(
            ("failures", "failures", None),
            ("rollbacks", "rollbacks", None),
            ("clusters/failure", "mean_clusters", 2),
            ("replays", "replays", None),
            ("lost node-seconds", "lost_work", 1),
        ),
        paper={"goal": "§3.3: limit the number of clusters that rollback"},
    ),
    Study(
        name="ablation-incremental",
        title="Ablation -- incremental stable-storage replication",
        artifact="§7 extension",
        heading="Ablation -- incremental stable storage",
        description=(
            "Replica traffic for full-state vs delta-based neighbour "
            "replication, same workload and one mid-run failure."
        ),
        workload="table1",
        workload_args={**_COUPLED_20MIN, "messages_1_to_0": 103},
        scale={"nodes": 20, "total_time": 4 * HOUR},
        axis_kwargs={"fraction": 0.2},
        # the incremental variant ships a full state once and deltas
        # afterwards; a rollback restarts the chain
        variants=lambda kwargs: (
            Variant("full replicas (paper)"),
            Variant(
                f"incremental (delta={kwargs['fraction']:g})",
                protocol_options={
                    "incremental": True,
                    "incremental_fraction": kwargs["fraction"],
                },
            ),
        ),
        failures=((0.6, (0, 1)),),
        axis="variant",
        columns=(
            ("CLCs", "checkpoints", None),
            ("replica messages", "replica_msgs", None),
            ("protocol bytes", "protocol_bytes", None),
        ),
        paper={
            "context": "incremental two-level checkpointing variant "
            "(not evaluated in the paper; delta chains restart on rollback)"
        },
    ),
    Study(
        name="ablation-replication",
        title="Ablation -- stable-storage replication degree (§7)",
        artifact="§7",
        heading="Ablation -- stable-storage replication degree (§7)",
        description=(
            "Each node's state is copied to k ring successors; k faults per "
            "cluster are survivable at k-fold storage and replica traffic."
        ),
        workload="table1",
        workload_args=_COUPLED_20MIN,
        scale={"nodes": 20, "total_time": 2 * HOUR},
        axis_kwargs={"degrees": (0, 1, 2, 3)},
        variants=lambda kwargs: tuple(
            Variant(degree, protocol_options={"replication_degree": degree})
            for degree in kwargs["degrees"]
        ),
        axis="degree",
        columns=(
            ("faults tolerated", "faults_tolerated", None),
            ("stored CLCs (c0)", "stored_c0", None),
            ("states/node (c0)", "states_c0", None),
            ("replica messages", "replica_msgs", None),
        ),
        paper={"extension": "§7: user-chosen degree of replication in stable storage"},
    ),
    Study(
        name="ablation-gc-period",
        title="Ablation -- garbage collection period tradeoff (§5.4)",
        artifact="§5.4",
        heading="Ablation -- garbage collection period (§5.4 tradeoff)",
        description="Peak and final stored CLCs vs GC frequency, plus GC traffic.",
        workload="table2",
        workload_args={},
        scale={"nodes": 50, "total_time": TOTAL_TIME},
        axis_kwargs={"periods_h": None},
        variants=lambda kwargs: tuple(
            Variant(
                "off" if period is None else f"{period:g}h",
                workload={"gc_period": None if period is None else period * HOUR},
            )
            for period in (kwargs["periods_h"] or _DEFAULT_GC_PERIODS_H)
        ),
        axis="GC period",
        columns=(
            ("peak stored", "peak_stored", None),
            ("final c0", "stored_c0", None),
            ("final c1", "stored_c1", None),
            ("CLCs removed", "clcs_removed", None),
            ("GC messages", "gc_msgs", None),
        ),
        paper={"tradeoff": "frequency of garbage collection vs number of CLCs stored"},
    ),
    Study(
        name="ablation-components",
        title="Ablation -- HC3I component importance (leave-one-out)",
        artifact="§3.2/§3.3/§5.4 synthesis",
        heading="Ablation -- HC3I component importance (leave-one-out)",
        description=(
            "Full HC3I vs HC3I minus one component on the 3-stage pipeline "
            "workload, same failure schedule; the lost-work delta ranks how "
            "much each component buys."
        ),
        # pipeline, not table1: every component needs inter-cluster traffic
        # to have observable work at tiny scale
        workload="pipeline",
        workload_args={"n_stages": 3, "skip_probability": 0.02, "gc_period": HOUR},
        scale={"nodes": 20, "total_time": 4 * HOUR},
        rename={"nodes": "nodes_per_stage"},
        variants=(
            Variant("full hc3i"),
            # a CLC forced on every inter-cluster message, no SN/DDV test
            Variant("no DDV piggyback", protocol_options={"mode": "always"}),
            # the sender cluster rolls back to regenerate in-transit messages
            Variant("no message logging", protocol_options={"replay_enabled": False}),
            # every committed CLC stays in stable storage
            Variant("no garbage collection", workload={"gc_period": None}),
            # one federation-wide 2PC instead of intra-cluster CLC + inter-cluster CIC
            Variant("no hierarchy", "global-coordinated"),
        ),
        axis_kwargs={"failure_times": None},
        failures=_TWO_FAILURES,
        axis="configuration",
        columns=(
            ("checkpoints", "checkpoints", None),
            ("forced", "forced", None),
            ("stored", "stored", None),
            ("clusters/failure", "mean_clusters", 2),
            ("lost node-seconds", "lost_work", 1),
            ("log bytes", "log_bytes", None),
        ),
        series=ABLATION_METRICS,
        note=_importance_note,
        paper={
            "ddv-piggyback": "§3.2 usefulness test",
            "message-logging": "§3.3 optimistic sender log",
            "garbage-collection": "§5.4 storage tradeoff",
            "hierarchy": "§2.2 two-level design",
        },
        scaled=True,
    ),
)

if len({study.name for study in STUDIES}) != len(STUDIES):
    # every row shares one point function, so registry.register cannot tell
    # a copy-pasted name from a reload
    raise ValueError("two study rows share a name")
for _study in STUDIES:
    register(_study.experiment())

"""Command-line runner, mirroring the paper's simulator invocation.

The original simulator consumed three files (topology, application, timers)
and printed statistical data.  Usage::

    hc3i-sim --topology topo.json --application app.json --timers timers.json
    hc3i-sim --scenario scenario.json --protocol hc3i-transitive --seed 7

or, without installing the entry point::

    python -m repro.cli --scenario scenario.json

Every scenario run is judged by the consistency oracle
(:mod:`repro.analysis.oracle`): after the tables comes one line such as ::

    consistency: consistent: 155 messages (155 delivered, 0 in flight, 0 queued, 0 replayable) across 0 rollback erasures

(a ``"consistency"`` object under ``--json``), and a run whose surviving
timeline holds an orphan, duplicate or lost message lists the violating
message ids there and exits 1.

Paper sweeps run through the parallel experiment engine::

    repro sweep --list
    repro sweep table1 --jobs 4
    repro sweep fig6-fig7 --scale tiny --no-cache
    repro sweep fig8 --set delays_min=[5,15]

Component ablations rank what each HC3I piece buys::

    repro ablate hc3i --scale tiny
    repro ablate hc3i --metric checkpoints --json

Each path above is one row of :data:`VERBS`; :func:`main` looks the first
argument up there (no verb: the scenario row) and :func:`parser` builds the
row's parser.  A flag several rows take is declared once.

See ``docs/sweeps.md`` for the sweep-engine guide (scales, caching,
lost points, where a sweep runs) and
``docs/architecture.md`` for the module map.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.cluster.federation import Federation
from repro.config.loader import load_scenario
from repro.core.protocol import protocol_names
from repro.experiments.registry import (
    SCALE_PROFILES,
    coerce_sets,
    resolve_overrides,
)
from repro.sim.trace import TraceLevel

__all__ = ["VERBS", "main", "parser"]


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type for a count that must be at least ``low``."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            value = low - 1  # not a number: refused below, in the same words
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {raw!r}"
            )
        return value

    return parse


def _positive_float(raw: str) -> float:
    """An argparse type for a duration that must be above zero."""
    try:
        value = float(raw)
    except ValueError:
        value = 0.0
    if not value > 0:  # NaN too
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {raw!r}")
    return value


def _add_cache_dir(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"{what} (default: $REPRO_CACHE_DIR or ~/.cache/hc3i-repro)",
    )


def _add_json(parser: argparse.ArgumentParser, what: str, instead: str) -> None:
    parser.add_argument(
        "--json", action="store_true", help=f"emit {what} as JSON instead of {instead}"
    )


def _print_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, default=str)
    print()


def _scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", help="single JSON file with all three sections")
    parser.add_argument("--topology", help="topology file (JSON)")
    parser.add_argument("--application", help="application file (JSON)")
    parser.add_argument("--timers", help="timers file (JSON)")
    parser.add_argument(
        "--protocol",
        default=None,
        help=f"protocol to run ({', '.join(protocol_names())})",
    )
    parser.add_argument("--seed", type=int, default=None, help="root random seed")
    parser.add_argument(
        "--until", type=float, default=None, help="stop at this simulated time (s)"
    )
    parser.add_argument(
        "--trace",
        choices=[level.name.lower() for level in TraceLevel],
        default="none",
        help="trace verbosity",
    )
    _add_json(parser, "results", "tables")


def _run_scenario(args: argparse.Namespace) -> int:
    if args.scenario:
        files = (args.scenario, args.scenario, args.scenario)
    elif args.topology and args.application and args.timers:
        files = (args.topology, args.application, args.timers)
    else:
        raise SystemExit(
            "either --scenario or all of --topology/--application/--timers required"
        )
    try:
        scenario = load_scenario(*files)
        if args.protocol:
            scenario.protocol = args.protocol
        if args.seed is not None:
            scenario.seed = args.seed
        fed = Federation(
            scenario.topology,
            scenario.application,
            scenario.timers,
            protocol=scenario.protocol,
            protocol_options=scenario.protocol_options,
            seed=scenario.seed,
            trace_level=TraceLevel[args.trace.upper()],
        )
    except ValueError as exc:  # an unknown key, or a malformed or out-of-range value
        raise SystemExit(f"hc3i-sim: {exc}") from None
    from repro.analysis.oracle import attach_oracle

    oracle = attach_oracle(fed)
    results = fed.run(until=args.until)
    verdict = oracle.check()
    status = 0 if verdict.ok else 1

    if args.json:
        _print_json({
            "protocol": results.protocol,
            "duration": results.duration,
            "events": results.events,
            "messages": {f"{i}->{j}": v for (i, j), v in results.messages.items()},
            "protocol_messages": results.protocol_messages,
            "clusters": results.clusters,
            "stats": results.stats,
            "consistency": {"ok": verdict.ok, **dataclasses.asdict(verdict)},
        })
        return status

    print(f"protocol={results.protocol} seed={results.seed} "
          f"duration={results.duration:g}s events={results.events}")
    rows = [(f"c{i}", f"c{j}", v) for (i, j), v in sorted(results.messages.items())]
    print(format_table(["from", "to", "app messages"], rows, title="-- traffic --"))
    clc_rows = []
    for c in range(fed.topology.n_clusters):
        counts = results.clc_counts(c)
        clc_rows.append(
            (f"c{c}", counts["initial"], counts["unforced"], counts["forced"],
             counts["total"], results.stored_clcs(c))
        )
    print(format_table(
        ["cluster", "initial", "unforced", "forced", "total", "stored"],
        clc_rows,
        title="-- committed CLCs --",
    ))
    print(f"protocol messages: {results.protocol_messages}")
    if args.trace != "none":
        for record in fed.tracer.records:
            print(f"{record.time:14.6f}  {record.kind:20s} {record.fields}")
    print(f"consistency: {verdict}")
    return status


def _overrides_or_exit(experiment, scale: str, set_pairs=(), seed=None) -> dict:
    """``--scale``/``--set``/``--seed`` through the registry's one resolver.

    Its :class:`ValueError` (malformed pair, non-finite value, key the grid
    does not take) and ``build_grid``'s (a value the grid function rejects)
    become a clean exit: an explicit flag is never a silent no-op.
    """
    try:
        sets = {}
        for pair in set_pairs:
            key, sep, raw = pair.partition("=")
            if not sep or not key:
                raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
            sets[key] = raw
        overrides = resolve_overrides(experiment, scale, sets=coerce_sets(sets), seed=seed)
        experiment.build_grid(overrides)
        return overrides
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _add_engine_args(parser: argparse.ArgumentParser, unit: str) -> None:
    """The flags of every verb that runs a registry experiment through the
    engine; ``unit`` is what that verb calls one grid point in its help."""
    parser.add_argument(
        "--jobs",
        type=_int_at_least(1),
        default=1,
        help=f"worker processes for cache-missing {unit}s (default 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"recompute every {unit}, bypassing the result cache",
    )
    _add_cache_dir(parser, "result cache directory")
    parser.add_argument(
        "--scale",
        choices=sorted(SCALE_PROFILES),
        default="small",
        help="grid scale: 'full' = the paper's 100 nodes / 10 h",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the grid seed")


def _run(experiment, args: argparse.Namespace):
    """Run ``experiment`` as the engine flags say; returns the SweepReport.

    Cache (unless ``--no-cache``), then ``--scale/--set/--seed`` through the
    registry, then ``--jobs`` local worker processes.
    """
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import run_experiment

    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    sets = getattr(args, "sets", ())  # ``repro ablate`` takes no --set
    overrides = _overrides_or_exit(experiment, args.scale, sets, args.seed)
    return run_experiment(experiment, overrides=overrides, jobs=args.jobs, cache=cache)


def _report_payload(report, args: argparse.Namespace) -> dict:
    """The execution accounting every ``--json`` report carries."""
    return {
        "experiment": report.name,
        "scale": args.scale,
        "points": report.points,
        "cache_hits": report.cache_hits,
        "executed": report.executed,
    }


def _sweep_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "name",
        nargs="?",
        help="experiment to sweep (see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered experiments and exit"
    )
    _add_engine_args(parser, "grid point")
    parser.add_argument(
        "--set",
        dest="sets",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "override one grid kwarg (repeatable); values are typed: "
            "true/false -> bool, 5 -> int, 5.0 -> float, [5,15] -> list, else str"
        ),
    )
    _add_json(parser, "the reduced result", "tables")


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import registry

    if args.list:
        rows = [
            (exp.name, "yes" if exp.scaled else "no", exp.title)
            for exp in registry.all_experiments()
        ]
        print(format_table(["name", "scaled", "title"], rows,
                           title="-- registered experiments --"))
        return 0
    if not args.name:
        raise SystemExit("repro sweep: an experiment name (or --list) is required")
    try:
        experiment = registry.get(args.name)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    report = _run(experiment, args)
    result = report.result
    if args.json:
        _print_json({
            **_report_payload(report, args),
            "backend": report.backend,
            "host_counts": dict(report.host_counts),
            "retries": report.retries,
            "name": result.name,
            "headers": list(result.headers),
            "rows": [list(row) for row in result.rows],
            "x_label": result.x_label,
            "xs": list(result.xs),
            "series": {k: list(v) for k, v in result.series.items()},
            "notes": list(result.notes),
        })
    else:
        print(result.render())
        print(f"[sweep] {report.summary()}")
    return 0


#: ablation targets: positional name -> the experiment that ablates it
ABLATE_TARGETS = {"hc3i": "ablation-components"}


def _ablate_args(parser: argparse.ArgumentParser) -> None:
    from repro.experiments.studies import ABLATION_METRICS

    parser.add_argument(
        "target",
        choices=sorted(ABLATE_TARGETS),
        help="protocol whose components to ablate",
    )
    parser.add_argument(
        "--metric",
        choices=ABLATION_METRICS,
        default="lost_work",
        help="metric the importance ranking uses (default: lost_work)",
    )
    _add_engine_args(parser, "configuration")
    _add_json(parser, "the ranked report", "markdown")
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write report.json + report.md into DIR",
    )


def _run_ablate(args: argparse.Namespace) -> int:
    from repro.experiments import registry
    from repro.experiments.studies import (
        component_importance,
        render_importance_markdown,
    )

    report = _run(registry.get(ABLATE_TARGETS[args.target]), args)
    result = report.result
    ranking = component_importance(result, metric=args.metric)
    markdown = render_importance_markdown(ranking)
    payload = {
        "target": args.target,
        **_report_payload(report, args),
        "metric": args.metric,
        "ranking": ranking,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(
            json.dumps(payload, indent=2, default=str) + "\n"
        )
        (out / "report.md").write_text(markdown + "\n")
    if args.json:
        _print_json(payload)
    else:
        print(result.render())
        print()
        print(markdown)
        print(f"[ablate] {report.summary()}")
    return 0


def _serve_args(parser: argparse.ArgumentParser) -> None:
    # counts and deadlines are refused at parse time, not clamped below:
    # an explicit flag is never silently rewritten
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8642, help="bind port, 0 = ephemeral (default: %(default)s)")
    _add_cache_dir(parser, "result cache to serve")
    parser.add_argument(
        "--hot-mb",
        type=float,
        default=64.0,
        help="in-memory hot-tier budget in MiB, 0 disables it (default: %(default)s)",
    )
    parser.add_argument(
        "--max-inflight",
        type=_int_at_least(1),
        default=4,
        help="concurrent point computes before queueing (default: %(default)s)",
    )
    parser.add_argument(
        "--queue-size",
        type=_int_at_least(0),
        default=16,
        help="queued computes beyond --max-inflight before 429s (default: %(default)s)",
    )
    parser.add_argument(
        "--max-sweeps",
        type=_int_at_least(1),
        default=2,
        help="concurrent streamed sweeps before 429s (default: %(default)s)",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=300.0,
        help="per-request compute deadline in seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--journal-shards",
        type=_int_at_least(1),
        default=4,
        help="provenance-journal shard count for concurrent writers (default: %(default)s)",
    )


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.experiments.cache import ResultCache
    from repro.serve import HttpServer, ServeApp

    cache = ResultCache(root=args.cache_dir, journal_shards=args.journal_shards)
    app = ServeApp(
        cache=cache,
        hot_mb=args.hot_mb,
        max_inflight=args.max_inflight,
        queue_size=args.queue_size,
        max_sweeps=args.max_sweeps,
        request_timeout=args.timeout,
    )
    server = HttpServer(app.handle, host=args.host, port=args.port)

    async def _run() -> None:
        await server.start()
        print(f"repro serve: listening on http://{server.host}:{server.port} "
              f"(cache: {cache.root}, hot tier: {args.hot_mb:g} MiB)")
        sys.stdout.flush()
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    finally:
        app.close()
    return 0


#: verb -> ``(description, add_args, run)``; ``None`` is the scenario path
#: (``hc3i-sim``, no verb)
VERBS: Dict[
    Optional[str],
    Tuple[str, Callable[[argparse.ArgumentParser], None], Callable[[argparse.Namespace], int]],
] = {
    None: (
        "Discrete-event simulation of the HC3I checkpointing protocol.",
        _scenario_args,
        _run_scenario,
    ),
    "sweep": (
        "Run a registered paper experiment as a parallel, cached sweep.",
        _sweep_args,
        _run_sweep,
    ),
    "ablate": (
        "Leave-one-out component ablation with a ranked importance "
        "report (runs through the sweep engine and cache).",
        _ablate_args,
        _run_ablate,
    ),
    "serve": (
        "Serve sweep results over HTTP: registry enumeration, memoized "
        "grid-point fetches (hot tier over the result cache), streamed "
        "sweep launches, and /stats observability.  See docs/serve.md.",
        _serve_args,
        _run_serve,
    ),
}


def parser(verb: Optional[str]) -> argparse.ArgumentParser:
    """The argument parser of one :data:`VERBS` row."""
    description, add_args, _ = VERBS[verb]
    built = argparse.ArgumentParser(
        prog="hc3i-sim" if verb is None else f"repro {verb}",
        description=description,
    )
    add_args(built)
    return built


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    verb = argv[0] if argv and not argv[0].startswith("-") else None
    if verb not in VERBS:
        names = ", ".join(sorted(name for name in VERBS if name))
        print(f"repro: unknown command {verb!r} (choose from: {names})", file=sys.stderr)
        return 2
    rest = argv if verb is None else argv[1:]
    return VERBS[verb][2](parser(verb).parse_args(rest))


def console_main() -> int:  # pragma: no cover
    """Entry point for the installed scripts; tames ``repro ... | head``."""
    try:
        return main()
    except BrokenPipeError:
        # reopen stdout on devnull so interpreter teardown doesn't warn
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(console_main())

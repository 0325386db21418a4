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
    repro sweep table1 --backend ssh --hosts nodeA,nodeB:4
    repro sweep fig9 --backend slurm --sbatch-opt=--partition=short
    repro sweep fig9 --backend k8s --namespace sweeps

Component ablations rank what each HC3I piece buys::

    repro ablate hc3i --scale tiny
    repro ablate hc3i --metric checkpoints --json

Federation cache sync moves finished results between sites::

    repro cache export siteA.tar.gz
    repro cache import siteA.tar.gz          # at site B
    repro cache merge /mnt/siteA-cache ~/.cache/hc3i-repro

The static determinism/concurrency contract checker
(``docs/static-analysis.md``)::

    repro lint
    repro lint --list-rules

``--checkpoint-every`` makes evicted points resume instead of recompute;
the policy is built once here and rides every task to its worker, the
same way on every backend::

    repro sweep fig6-fig7 --scale full --backend k8s --checkpoint-every 600

See ``docs/sweeps.md`` for the sweep-engine guide (scales, caching,
multi-host execution, batch schedulers, checkpoint/resume, cache sync) and
``docs/architecture.md`` for the module map.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from repro.analysis.reporting import format_table
from repro.cluster.federation import Federation
from repro.config.loader import ScenarioConfig, load_scenario
from repro.core.protocol import protocol_names
from repro.experiments.registry import (
    SCALE_PROFILES,
    coerce_set_value,
    resolve_overrides,
)
from repro.sim.trace import TraceLevel

__all__ = [
    "main",
    "build_parser",
    "build_ablate_parser",
    "build_sweep_parser",
    "build_cache_parser",
    "build_serve_parser",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hc3i-sim",
        description="Discrete-event simulation of the HC3I checkpointing protocol.",
    )
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
        choices=["none", "protocol", "message", "debug"],
        default="none",
        help="trace verbosity",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit results as JSON instead of tables"
    )
    return parser


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
            sets[key] = coerce_set_value(raw)
        overrides = resolve_overrides(experiment, scale, sets=sets, seed=seed)
        experiment.build_grid(overrides)
        return overrides
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _jobs(raw: str) -> int:
    """``--jobs N``: a worker count, so at least one."""
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0  # not a number: refused below, in the same words
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return jobs


def _add_engine_args(parser: argparse.ArgumentParser, unit: str) -> None:
    """The flags of every verb that runs a registry experiment through the
    engine; ``unit`` is what that verb calls one grid point in its help."""
    parser.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        help=f"worker processes for cache-missing {unit}s (default 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"recompute every {unit}, bypassing the result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/hc3i-repro)",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALE_PROFILES),
        default="small",
        help="grid scale: 'full' = the paper's 100 nodes / 10 h",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the grid seed")


def _run(experiment, args: argparse.Namespace, backend_for=None):
    """Run ``experiment`` as the engine flags say; returns the SweepReport.

    Cache (unless ``--no-cache``), then ``--scale/--set/--seed`` through the
    registry, then -- for a verb that has them -- ``backend_for(args, cache)
    -> (backend, checkpoint policy)``, shut down again once the run is over.
    """
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import run_experiment

    cache = None if args.no_cache else ResultCache(root=args.cache_dir)
    sets = getattr(args, "sets", ())  # ``repro ablate`` takes no --set
    overrides = _overrides_or_exit(experiment, args.scale, sets, args.seed)
    backend, policy = backend_for(args, cache) if backend_for else (None, None)
    try:
        return run_experiment(
            experiment,
            overrides=overrides,
            jobs=args.jobs,
            cache=cache,
            backend=backend,
            checkpoint=policy,
        )
    finally:
        if backend is not None:
            backend.shutdown()


def _report_payload(report, args: argparse.Namespace) -> dict:
    """The execution accounting every ``--json`` report carries."""
    return {
        "experiment": report.name,
        "scale": args.scale,
        "points": report.points,
        "cache_hits": report.cache_hits,
        "executed": report.executed,
    }


def _print_json(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2, default=str)
    print()


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description=(
            "Run a registered paper experiment as a parallel, cached sweep."
        ),
    )
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
    parser.add_argument(
        "--backend",
        choices=["local", "ssh", "slurm", "k8s"],
        default="local",
        help=(
            "where cache-missing points execute: 'local' (process pool, default), "
            "'ssh' (fan out to --hosts), 'slurm' (sbatch array jobs) or "
            "'k8s' (indexed-completion kubernetes jobs)"
        ),
    )
    parser.add_argument(
        "--hosts",
        default=None,
        help=(
            "ssh backend roster: comma list ('nodeA,nodeB:4', ':N' = concurrent "
            "slots) or a hosts.toml path (see docs/sweeps.md)"
        ),
    )
    parser.add_argument(
        "--spool",
        default=None,
        help=(
            "slurm/k8s backend spool directory, visible to submit machine and "
            "compute nodes/pods (default: $REPRO_SLURM_SPOOL or "
            "<cache dir>/slurm-spool; $REPRO_K8S_SPOOL or <cache dir>/k8s-spool)"
        ),
    )
    parser.add_argument(
        "--sbatch-opt",
        dest="sbatch_opts",
        action="append",
        default=[],
        metavar="OPT",
        help=(
            "extra #SBATCH line for slurm array jobs (repeatable), e.g. "
            "--sbatch-opt=--partition=short --sbatch-opt=--time=30"
        ),
    )
    parser.add_argument(
        "--namespace",
        default=None,
        help="k8s backend: namespace to create sweep jobs in (default: the context's)",
    )
    parser.add_argument(
        "--k8s-opt",
        dest="k8s_opts",
        action="append",
        default=[],
        metavar="OPT",
        help=(
            "extra kubectl argument for the k8s backend (repeatable), e.g. "
            "--k8s-opt=--context=federation-b --k8s-opt=--kubeconfig=/path"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=float,
        default=None,
        metavar="SIM_SECONDS",
        help=(
            "snapshot each running grid point every SIM_SECONDS of simulated "
            "time, so a requeued (lost/evicted) point resumes from its latest "
            "snapshot instead of recomputing from zero (see docs/sweeps.md)"
        ),
    )
    parser.add_argument(
        "--checkpoint-wall",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock throttle: skip an interval snapshot when the previous "
            "one was written less than SECONDS ago (requires --checkpoint-every)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help=(
            "snapshot spool directory (default: <cache dir>/checkpoints, or "
            "<spool>/snapshots for the slurm/k8s backends; requires "
            "--checkpoint-every)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the reduced result as JSON instead of tables",
    )
    return parser


def _sweep_backend(args: argparse.Namespace, cache) -> tuple:
    """``repro sweep``'s backend and checkpoint policy from its flags."""
    from pathlib import Path

    from repro.experiments.backends import create_backend
    from repro.experiments.cache import default_cache_dir

    # same rule as --set/--seed: an explicit flag is never a silent no-op
    for given, flags, backends in (
        (args.hosts, "--hosts only applies", "ssh"),
        (args.sbatch_opts, "--sbatch-opt directives only apply", "slurm"),
        (args.spool, "--spool/--sbatch-opt only apply", "slurm/k8s"),
        (args.namespace or args.k8s_opts, "--namespace/--k8s-opt only apply", "k8s"),
    ):
        if given and args.backend not in backends.split("/"):
            raise SystemExit(
                f"{flags} to --backend {backends} (got --backend {args.backend})"
            )
    if (
        args.checkpoint_wall is not None or args.checkpoint_dir
    ) and args.checkpoint_every is None:
        raise SystemExit(
            "--checkpoint-wall/--checkpoint-dir require --checkpoint-every"
        )
    backend_kwargs: dict = {}
    if args.backend in ("slurm", "k8s"):
        if args.spool:
            backend_kwargs["spool"] = args.spool
        elif args.cache_dir:
            # keep the promise of "<cache dir>/<scheduler>-spool": an explicit
            # --cache-dir (often the cluster-shared filesystem) carries the
            # spool with it
            backend_kwargs["spool"] = Path(args.cache_dir) / f"{args.backend}-spool"
    if args.backend == "slurm":
        backend_kwargs["sbatch_options"] = tuple(args.sbatch_opts)
        backend_kwargs["python"] = sys.executable
    if args.backend == "k8s":
        backend_kwargs["namespace"] = args.namespace
        backend_kwargs["kubectl_options"] = tuple(args.k8s_opts)
        # pods run their own interpreter; against the local stub scheduler
        # this process's python is the right default, on a real cluster
        # $REPRO_K8S_PYTHON names the interpreter inside the image
        backend_kwargs["python"] = os.environ.get("REPRO_K8S_PYTHON", sys.executable)
    try:
        backend = create_backend(
            args.backend, jobs=args.jobs, hosts=args.hosts, **backend_kwargs
        )
    except ValueError as exc:
        raise SystemExit(f"repro sweep: {exc}") from None
    policy = None
    if args.checkpoint_every is not None:
        # One policy for every backend; it rides each task to its worker.
        # Snapshots default to <spool>/snapshots for slurm/k8s (compute
        # nodes/pods can reach it), else to <cache dir>/checkpoints.
        if args.checkpoint_dir:
            ckpt_dir = Path(args.checkpoint_dir)
        elif args.backend in ("slurm", "k8s"):
            ckpt_dir = backend.spool / "snapshots"
        else:
            ckpt_dir = (cache.root if cache is not None else default_cache_dir()) / "checkpoints"
        policy = {
            "every": args.checkpoint_every,
            "wall": args.checkpoint_wall,
            "dir": str(ckpt_dir),
        }
    return backend, policy


def _sweep_main(argv: Sequence[str]) -> int:
    from repro.experiments import registry

    args = build_sweep_parser().parse_args(argv)
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
    report = _run(experiment, args, _sweep_backend)
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


def build_ablate_parser() -> argparse.ArgumentParser:
    from repro.experiments.studies import ABLATION_METRICS

    parser = argparse.ArgumentParser(
        prog="repro ablate",
        description=(
            "Leave-one-out component ablation with a ranked importance "
            "report (runs through the sweep engine and cache)."
        ),
    )
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
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the ranked report as JSON instead of markdown",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write report.json + report.md into DIR",
    )
    return parser


def _ablate_main(argv: Sequence[str]) -> int:
    from repro.experiments import registry
    from repro.experiments.studies import (
        component_importance,
        render_importance_markdown,
    )

    args = build_ablate_parser().parse_args(argv)
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
        from pathlib import Path

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


def build_cache_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro cache",
        description=(
            "Federation cache sync: move result-cache entries between sites "
            "with their provenance journal."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    export = sub.add_parser(
        "export", help="pack the local cache into a portable .tar.gz archive"
    )
    export.add_argument("archive", help="archive path to write (.tar.gz)")
    export.add_argument(
        "--cache-dir",
        default=None,
        help="cache to export (default: $REPRO_CACHE_DIR or ~/.cache/hc3i-repro)",
    )

    imp = sub.add_parser(
        "import", help="import an exported archive (or another cache dir)"
    )
    imp.add_argument("source", help="archive file or cache directory to import")
    imp.add_argument(
        "--cache-dir",
        default=None,
        help="destination cache (default: $REPRO_CACHE_DIR or ~/.cache/hc3i-repro)",
    )
    imp.add_argument(
        "--allow-mismatch",
        action="store_true",
        help=(
            "also import entries computed under different repro sources "
            "(content-addressed, so they stay inert until the code matches)"
        ),
    )

    merge = sub.add_parser("merge", help="merge one cache directory into another")
    merge.add_argument("source", help="source cache directory")
    merge.add_argument("dest", help="destination cache directory")
    merge.add_argument(
        "--allow-mismatch",
        action="store_true",
        help="also merge entries computed under different repro sources",
    )
    return parser


def _cache_main(argv: Sequence[str]) -> int:
    from repro.experiments.cache import ResultCache
    from repro.experiments.cache_sync import (
        CacheSyncError,
        export_cache,
        import_cache,
        merge_caches,
    )

    args = build_cache_parser().parse_args(argv)
    try:
        if args.command == "export":
            report = export_cache(ResultCache(root=args.cache_dir), args.archive)
        elif args.command == "import":
            report = import_cache(
                ResultCache(root=args.cache_dir),
                args.source,
                allow_mismatch=args.allow_mismatch,
            )
        else:
            report = merge_caches(
                args.source, args.dest, allow_mismatch=args.allow_mismatch
            )
    except CacheSyncError as exc:
        raise SystemExit(f"repro cache: {exc}") from None
    print(report.summary())
    if report.mismatched_keys:
        sample = ", ".join(key[:12] + "..." for key in report.mismatched_keys)
        print(f"[cache {report.operation}] mismatched keys (sample): {sample}")
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve sweep results over HTTP: registry enumeration, memoized "
            "grid-point fetches (hot tier over the result cache), streamed "
            "sweep launches, and /stats observability.  See docs/serve.md."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8642, help="bind port, 0 = ephemeral (default: %(default)s)")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache to serve (default: $REPRO_CACHE_DIR or ~/.cache/hc3i-repro)",
    )
    parser.add_argument(
        "--hot-mb",
        type=float,
        default=64.0,
        help="in-memory hot-tier budget in MiB, 0 disables it (default: %(default)s)",
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="concurrent point computes before queueing (default: %(default)s)",
    )
    parser.add_argument(
        "--queue-size",
        type=int,
        default=16,
        help="queued computes beyond --max-inflight before 429s (default: %(default)s)",
    )
    parser.add_argument(
        "--max-sweeps",
        type=int,
        default=2,
        help="concurrent streamed sweeps before 429s (default: %(default)s)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="per-request compute deadline in seconds (default: %(default)s)",
    )
    parser.add_argument(
        "--journal-shards",
        type=int,
        default=4,
        help="provenance-journal shard count for concurrent writers (default: %(default)s)",
    )
    return parser


def _serve_main(argv: Sequence[str]) -> int:
    import asyncio

    from repro.experiments.cache import ResultCache
    from repro.serve import HttpServer, ServeApp

    args = build_serve_parser().parse_args(argv)
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


def _load(args: argparse.Namespace) -> ScenarioConfig:
    if args.scenario:
        return load_scenario(args.scenario, args.scenario, args.scenario)
    if not (args.topology and args.application and args.timers):
        raise SystemExit(
            "either --scenario or all of --topology/--application/--timers required"
        )
    return load_scenario(args.topology, args.application, args.timers)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])
    if argv and argv[0] == "ablate":
        return _ablate_main(argv[1:])
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.lint.cli import lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    scenario = _load(args)
    if args.protocol:
        scenario.protocol = args.protocol
    if args.seed is not None:
        scenario.seed = args.seed
    level = {
        "none": TraceLevel.NONE,
        "protocol": TraceLevel.PROTOCOL,
        "message": TraceLevel.MESSAGE,
        "debug": TraceLevel.DEBUG,
    }[args.trace]
    from repro.analysis.oracle import attach_oracle

    fed = Federation(
        scenario.topology,
        scenario.application,
        scenario.timers,
        protocol=scenario.protocol,
        protocol_options=scenario.protocol_options,
        seed=scenario.seed,
        trace_level=level,
    )
    oracle = attach_oracle(fed)
    results = fed.run(until=args.until)
    verdict = oracle.check()
    status = 0 if verdict.ok else 1

    if args.json:
        payload = {
            "protocol": results.protocol,
            "duration": results.duration,
            "events": results.events,
            "messages": {f"{i}->{j}": v for (i, j), v in results.messages.items()},
            "protocol_messages": results.protocol_messages,
            "clusters": results.clusters,
            "stats": results.stats,
            "consistency": {"ok": verdict.ok, **dataclasses.asdict(verdict)},
        }
        _print_json(payload)
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

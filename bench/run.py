#!/usr/bin/env python3
"""The repo's benchmark: five workloads, end-to-end metrics, a layer ladder.

    python3 bench/run.py                       # every workload, tracing off
    python3 bench/run.py --layers              # + ladder, traced repetition
    python3 bench/run.py --workload sweep_points --seed 11
    python3 bench/run.py --update-expected     # re-pin bench/expected.json

The driver's form is ``--workload NAME --seed N --seconds S --trace 0|1``.
Every workload runs in fresh child processes (``bench/worker.py``): one
measures, the others only set up, so ``setup_s`` is a median over
several cold set-ups.  The last line of standard output is one JSON
object ``{correct, attempted, failed, metrics}``; with one workload the
metrics are exactly the ``end_to_end`` (``--trace 0``) or ``per_layer``
(``--trace 1``) names of ``BENCHMARK.json``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

#: cold set-ups per workload and run; ``setup_s`` is their median
SETUP_SAMPLES = 5
#: no child may run longer than this
CHILD_TIMEOUT_S = 170

SIM_WORKLOADS = ("paper_eval", "app_traffic", "families_faulty")


def run_child(script: str, *args: str) -> dict:
    """Run a bench child to completion; returns the JSON object on its last line."""
    command = [sys.executable, str(harness.BENCH_DIR / script), *args]
    try:
        proc = subprocess.run(
            command, cwd=harness.ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise harness.BenchError(f"{script} {' '.join(args)} ran past {CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise harness.BenchError(f"{script} {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_workload(name: str, args) -> dict:
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.smoke:
        common.append("--smoke")
    if not args.update_expected:  # re-pinning never compares against the old pin
        common += ["--expected", str(args.expected.resolve())]
    result = run_child("worker.py", *common, "--trace", str(args.trace))
    setups = [result["setup_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(run_child("worker.py", *common, "--setup-only")["setup_s"])
    result["setup_samples"] = harness.summarize(setups)
    return result


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": result["setup_samples"]["median"],
        "work_per_s": result["work_per_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, ladder: dict, names: dict) -> dict:
    """Every ``per_layer`` name; a layer this workload never enters reads 0."""
    values = dict(ladder)
    values.update(result["layers"])
    for name, summary in result["samples"].items():
        if name != "work_per_s":
            values[name] = summary["median"]
    if result["workload"] in SIM_WORKLOADS:
        # one more rung: a whole experiment's events/s over one agent's messages/s
        values["workload.vs_hc3i"] = (
            result["work_per_s"] / ladder["core.hc3i.intra_msgs_per_s"]
        )
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise harness.BenchError(f"metrics missing from BENCHMARK.json per_layer: {unknown}")
    return {name: values.get(name, 0.0) for name in names}


def contract_line(results: dict, trace: int, spec: dict) -> dict:
    """The object the driver reads from the last line of standard output."""
    group = "per_layer" if trace else "end_to_end"
    units = harness.metric_units(spec, group)
    metrics = {}
    for workload, result in results.items():
        for name, value in result[group].items():
            key = name if len(results) == 1 else f"{workload}:{name}"
            metrics[key] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in results.values())
    golden_ok = all(r.get("per_layer", {}).get("golden_mismatches", 0) == 0 for r in results.values())
    return {
        "correct": failed == 0 and golden_ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }


def print_report(results: dict, ladder: dict, spec: dict) -> None:
    e2e_units = harness.metric_units(spec, "end_to_end")
    layer_units = harness.metric_units(spec, "per_layer")
    for workload, result in results.items():
        unit = result["unit"]
        print(f"\n== {workload}: {result['reps']} repetitions of {unit['work']} "
              f"{result['work_unit']} (~{unit['seconds_median']:.2f} s each); "
              f"{result['failed']} of {result['attempted']} operations failed")
        print(f"   verification: {result['verification']['events']} events, "
              f"{result['expected']}")
        for failure in result["failures"]:
            print(f"   FAILED {failure}")
        for name, value in result["end_to_end"].items():
            print(f"   {name:34s} {value:14.4f} {e2e_units[name]}")
        print(f"   per repetition:{'':19s} {'median':>14s} {'unit':6s} {'min':>12s} "
              f"{'q1':>12s} {'q3':>12s}  n")
        for name, s in result["samples"].items():
            unit = e2e_units.get(name) or layer_units[name]
            print(f"   {name:34s} {s['median']:14.4f} {unit:6s} {s['min']:12.4f} "
                  f"{s['q1']:12.4f} {s['q3']:12.4f}  {s['n']}")
        if "per_layer" in result:
            print(f"   spans: {result['trace_file']}")
            for name, value in result["per_layer"].items():
                # the ladder is printed once; a 0 the workload did not measure
                # itself stands for a layer it never enters
                if name not in ladder and (value or name in result["layers"]):
                    print(f"   {name:46s} {value:16.4f} {layer_units[name]}")
    if ladder:
        print("\n== layer ladder (tracing off)")
        for name, value in ladder.items():
            print(f"   {name:46s} {value:16.4f} {layer_units[name]}")


def update_expected(results: dict, args) -> None:
    path = args.expected
    expected = json.loads(path.read_text()) if path.is_file() else {}
    expected.setdefault("seed", args.seed)
    if args.seed != expected["seed"]:
        raise harness.BenchError(f"{path.name} pins seed {expected['seed']}, not {args.seed}")
    section = expected.setdefault("smoke" if args.smoke else "full", {})
    for workload, result in results.items():
        section[workload] = {
            key: result["verification"][key] for key in ("events", "result_sha256")
        }
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"pinned {', '.join(results)} in {path}")


def main(argv=None) -> int:
    spec = harness.load_spec()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=harness.WORKLOADS,
                        help="run only this workload (repeatable; order is kept)")
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measuring time per workload (default {spec['run_seconds']}, 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="tiny units, 2 repetitions (self-test)")
    parser.add_argument("--out", type=Path, default=harness.OUT_DIR / "run.json")
    parser.add_argument("--expected", type=Path, default=harness.EXPECTED_PATH)
    parser.add_argument("--update-expected", action="store_true",
                        help="pin this run's event counts and result hashes")
    args = parser.parse_args(argv)
    args.trace = 1 if args.layers else args.trace
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    names = args.workload or list(harness.WORKLOADS)

    try:
        harness.require_sources()
        load_start = harness.load_average()
        results = {name: measure_workload(name, args) for name in names}
        ladder = run_child("ladder.py", *(["--smoke"] if args.smoke else [])) if args.trace else {}
        for result in results.values():
            result["end_to_end"] = end_to_end(result)
            if args.trace:
                result["per_layer"] = per_layer(
                    result, ladder, harness.metric_units(spec, "per_layer")
                )
        if args.update_expected:
            update_expected(results, args)
    except harness.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print_report(results, ladder, spec)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    env = harness.env_block(args.seed, args.smoke, args.seconds, load_start)
    args.out.write_text(json.dumps({"env": env, "trace": args.trace, "workloads": results}, indent=1))
    print(f"\nwrote {args.out}")
    line = contract_line(results, args.trace, spec)
    sys.stdout.flush()
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Measure ONE workload in this process and print one JSON object.

``bench/run.py`` starts this file as a fresh child per workload, so that
``setup_s`` (which includes importing the program) and ``peak_rss_mb``
belong to that workload alone.  Steps: set-up -> one verification
repetition -> timed repetitions for ``--seconds`` (never fewer than the
minimum) -> with ``--trace 1`` one more repetition with tracing on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import harness


def check_expected(workload: str, seed: int, smoke: bool, verification: dict, path) -> str:
    """Compare the verification repetition with the pinned entry; returns a note."""
    if path is None:
        return "not compared with a pinned entry"
    expected = json.loads(path.read_text())
    if seed != expected["seed"]:
        return (
            f"seed {seed} is not the pinned seed {expected['seed']}: "
            "repetitions are only checked against each other"
        )
    entry = expected["smoke" if smoke else "full"].get(workload)
    if entry is None:
        return "no pinned entry for this workload"
    differs = [key for key in ("events", "result_sha256") if entry[key] != verification[key]]
    for key in differs:
        verification["failures"].append(
            f"{path.name}: {key} is {verification[key]!r}, pinned {entry[key]!r}"
        )
    if differs:
        return "differs from the pinned entry"
    return "matches the pinned entry"


def fastest_unit_rate(reps: list) -> float:
    """Work per second of the unit assembled from the fastest run of each of its parts.

    Interference on a shared 2-core sandbox only ever slows a part down,
    and it comes in bursts of seconds to tens of seconds (measured: 5 s
    windows between 0.95x and 1.5x of the median), longer than a part but
    shorter than a run.  The median repetition therefore moves with the
    bursts; the fastest observed run of each part does not.  The program
    does identical work in every repetition (its results are checked to be
    equal), so nothing but the machine separates a part's runs.
    """
    work = seconds = 0.0
    for runs in zip(*(rep.parts for rep in reps)):
        part_work, part_seconds = max(runs, key=lambda run: run[0] / run[1])
        work += part_work
        seconds += part_seconds
    return work / seconds


def measure(args) -> dict:
    started = time.perf_counter()
    harness.require_sources()
    import workloads  # imports the program: part of set-up

    workload = workloads.WORKLOAD_CLASSES[args.workload](args.seed, args.smoke)
    min_reps = harness.SMOKE_MIN_REPS if args.smoke else harness.MIN_REPS
    out: dict = {"workload": args.workload, "work_unit": workload.work_unit}
    try:
        workload.setup()
        out["setup_s"] = time.perf_counter() - started
        if args.setup_only:
            return out
        out["inputs"] = workload.inputs()

        verification = workload.verify()
        out["expected"] = check_expected(
            args.workload, args.seed, args.smoke, verification, args.expected
        )
        failures = list(verification["failures"])
        attempted = verification["attempted"]

        reps = []
        begin = time.perf_counter()
        while True:
            reps.append(workload.repetition())
            typical = statistics.median(rep.seconds for rep in reps)
            spent = time.perf_counter() - begin
            # never start a repetition that would overrun the measuring time
            if len(reps) >= min_reps and spent + typical > args.seconds:
                break
        for rep in reps:
            attempted += rep.attempted
            failures.extend(rep.failures)

        samples = {"work_per_s": [rep.work / rep.seconds for rep in reps]}
        for name in reps[0].phases:
            samples[name] = [rep.phases[name] for rep in reps]
        out["samples"] = {name: harness.summarize(values) for name, values in samples.items()}
        out["work_per_s"] = fastest_unit_rate(reps)
        out["reps"] = len(reps)
        out["unit"] = {"work": reps[0].work, "seconds_median": typical}
        out["verification"] = verification

        if args.trace:
            spans = harness.Spans()
            traced = workload.repetition(spans)
            attempted += traced.attempted
            failures.extend(traced.failures)
            untraced = statistics.median(rep.seconds / rep.work for rep in reps)
            layers = dict(traced.layers)
            layers["trace_overhead_ratio"] = (traced.seconds / traced.work) / untraced
            if "table1_rel_err" in verification:
                layers["paper.table1_rel_err"] = verification["table1_rel_err"]
            out["layers"] = layers
            harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
            trace_path = harness.OUT_DIR / f"trace-{args.workload}.json"
            trace_path.write_text(json.dumps(spans.spans))
            out["trace_file"] = str(trace_path.relative_to(harness.ROOT))
    finally:
        workload.close()
    out["peak_rss_mb"] = workload.peak_rss_mb()
    out["attempted"] = attempted
    out["failed"] = min(len(failures), attempted)
    out["failures"] = failures[:20]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--expected", type=Path, default=None)
    args = parser.parse_args(argv)
    result = measure(args)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

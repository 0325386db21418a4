#!/usr/bin/env python3
"""Compare two benchmark results, one row per (workload, end-to-end metric).

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py --self 2 [--reverse] [--smoke] [--layers]

``A`` is the parent, ``B`` the change.  A file is what ``bench/run.py
--out`` wrote, or a set of such runs (``{"runs": [...]}``, which is what
``--self`` writes).  Each row shows both medians and quartiles over the
runs of a set, the relative change, the bound from ``BENCHMARK.json``
and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is, and the spread does not explain it
``unresolved``  the run-to-run spread is wider than the bound and the two
                sets of runs overlap, so the runs cannot tell

Exit code 1 on any ``worse``, on any rise in failed operations, or when a
quantity that must repeat exactly (event counts, result hashes, simulated
counts) differs between runs of the same seed.  ``--self N`` runs the
benchmark N times on the current tree, twice, and compares the two sets;
there the medians must agree within the bound in either direction (a set of
two or three runs is too small for its quartiles to decide anything).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

#: env fields two results must share to be comparable at all
LIKE_FOR_LIKE = ("python", "nproc", "smoke", "seconds", "min_reps")


def load_runs(path: Path) -> list:
    data = json.loads(path.read_text())
    return data["runs"] if "runs" in data else [data]


def compare_metric(a: list, b: list, better: str, bound: float) -> dict:
    """Verdict for one metric from the per-run values of both sides."""
    sum_a, sum_b = harness.summarize(a), harness.summarize(b)
    med_a, a1, a3 = sum_a["median"], sum_a["q1"], sum_a["q3"]
    med_b, b1, b3 = sum_b["median"], sum_b["q1"], sum_b["q3"]
    change = (med_b - med_a) / med_a
    worse_by = change if better == "lower" else -change
    spread = max(a3 - a1, b3 - b1) / med_a
    if better == "lower":
        b_all_worse, b_all_better = min(b) > max(a), max(b) < min(a)
    else:
        b_all_worse, b_all_better = max(b) < min(a), min(b) > max(a)
    if worse_by > bound:
        verdict = "worse" if spread <= bound or b_all_worse else "unresolved"
    else:
        verdict = "ok" if spread <= bound or b_all_better else "unresolved"
    return {
        "a": med_a, "a_q1": a1, "a_q3": a3, "b": med_b, "b_q1": b1, "b_q3": b3,
        "change": change, "worse_by": worse_by, "spread": spread, "bound": bound,
        "verdict": verdict,
    }


def exact_quantities(run: dict, workload: str) -> dict:
    """What must be identical between two runs of one seed on one source tree."""
    result = run["workloads"][workload]
    exact = {
        "events": result["verification"]["events"],
        "result_sha256": result["verification"]["result_sha256"],
    }
    for name, value in result.get("per_layer", {}).items():
        if name.startswith("count.") or name == "paper.table1_rel_err":
            exact[name] = value
    return exact


def compare(runs_a: list, runs_b: list, spec: dict, same_tree: bool) -> tuple:
    """Returns ``(rows, problems)``; ``problems`` are reasons to exit 1."""
    problems = []
    env_a, env_b = runs_a[0]["env"], runs_b[0]["env"]
    for key in LIKE_FOR_LIKE:
        if env_a[key] != env_b[key]:
            problems.append(f"not like for like: {key} is {env_a[key]!r} vs {env_b[key]!r}")
    rows = []
    workloads = [w for w in runs_a[0]["workloads"] if w in runs_b[0]["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["workloads"][workload]["end_to_end"][name] for run in runs_a]
            b = [run["workloads"][workload]["end_to_end"][name] for run in runs_b]
            row = compare_metric(a, b, metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"])
            rows.append(row)
            if row["verdict"] == "worse":
                problems.append(f"{workload} {name}: worse by {row['worse_by']:.1%}")
        failed_a = sum(run["workloads"][workload]["failed"] for run in runs_a)
        failed_b = sum(run["workloads"][workload]["failed"] for run in runs_b)
        if failed_b > failed_a:
            problems.append(f"{workload}: failed operations rose from {failed_a} to {failed_b}")
        # simulated quantities repeat exactly for a seed: within a set always,
        # across sets when both measured the same source tree
        groups = [runs_a + runs_b] if same_tree else [runs_a, runs_b]
        for group in groups:
            by_seed: dict = {}
            for run in group:
                exact = exact_quantities(run, workload)
                first = by_seed.setdefault(run["env"]["seed"], exact)
                for key in first.keys() & exact.keys():
                    if first[key] != exact[key]:
                        problems.append(
                            f"{workload} {key}: {first[key]!r} vs {exact[key]!r} for one seed"
                        )
    return rows, problems


def print_rows(rows: list) -> None:
    print(f"{'workload':16s} {'metric':12s} {'unit':5s} {'A median [q1, q3]':>38s} "
          f"{'B median [q1, q3]':>38s} {'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        a = f"{r['a']:.4g} [{r['a_q1']:.4g}, {r['a_q3']:.4g}]"
        b = f"{r['b']:.4g} [{r['b_q1']:.4g}, {r['b_q3']:.4g}]"
        print(f"{r['workload']:16s} {r['metric']:12s} {r['unit']:5s} {a:>38s} {b:>38s} "
              f"{r['change']:+8.1%} {r['spread']:7.1%} {r['bound']:6.0%}  {r['verdict']}")


def self_runs(n: int, label: str, workloads: list, extra: list) -> list:
    runs = []
    for i in range(n):
        out = harness.OUT_DIR / f"self-{label}-{i}.json"
        command = [sys.executable, str(harness.BENCH_DIR / "run.py"), "--out", str(out), *extra]
        for workload in workloads:
            command += ["--workload", workload]
        proc = subprocess.run(command, cwd=harness.ROOT, stdout=subprocess.DEVNULL)
        if proc.returncode not in (0, 1):  # 1 = ran, but an operation failed: compared below
            raise harness.BenchError(f"bench/run.py exited with {proc.returncode}")
        runs.append(json.loads(out.read_text()))
        out.unlink()
    (harness.OUT_DIR / f"self-{label}.json").write_text(json.dumps({"runs": runs}))
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("files", nargs="*", type=Path, metavar="A.json B.json")
    parser.add_argument("--self", dest="self_n", type=int, metavar="N",
                        help="run the benchmark N times, twice, and compare the two sets")
    parser.add_argument("--reverse", action="store_true",
                        help="with --self: run the second set's workloads in reverse order")
    parser.add_argument("--smoke", action="store_true", help="with --self: pass --smoke")
    parser.add_argument("--layers", action="store_true", help="with --self: pass --layers")
    args = parser.parse_args(argv)
    spec = harness.load_spec()
    try:
        if args.self_n:
            extra = [flag for flag, on in (("--smoke", args.smoke), ("--layers", args.layers)) if on]
            order = list(harness.WORKLOADS)
            runs_a = self_runs(args.self_n, "a", order, extra)
            runs_b = self_runs(args.self_n, "b", order[::-1] if args.reverse else order, extra)
        elif len(args.files) == 2:
            runs_a, runs_b = load_runs(args.files[0]), load_runs(args.files[1])
        else:
            parser.error("give A.json B.json, or --self N")
    except harness.BenchError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    rows, problems = compare(runs_a, runs_b, spec, same_tree=bool(args.self_n))
    print_rows(rows)
    if args.self_n:
        problems += [
            f"{r['workload']} {r['metric']}: two sets of runs of one tree differ by {r['change']:+.1%}"
            for r in rows if r["verdict"] != "worse" and abs(r["change"]) > r["bound"]
        ]
    for problem in problems:
        print(f"PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

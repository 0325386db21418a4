"""Shared pieces of the benchmark harness: paths, the metric catalogue
(``BENCHMARK.json`` is the single list of names and units), summaries,
result hashing, harness-side spans, profile folding and the ``env`` block.

Nothing here imports ``repro`` at module level: ``bench/run.py`` (the
orchestrator) imports this file and must stay cheap and importable in a
directory that has no ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = BENCH_DIR / "expected.json"
GOLDEN_PATH = ROOT / "tests" / "golden" / "trace_digests.json"

DEFAULT_SEED = 7
#: timed repetitions never go below this (2 under ``--smoke``)
MIN_REPS = 5
SMOKE_MIN_REPS = 2

WORKLOADS = ("paper_eval", "app_traffic", "families_faulty", "sweep_points", "serve_points")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, bad arguments, dead child)."""


def require_sources() -> None:
    """Put this checkout's ``src/`` first on ``sys.path``; refuse any other ``repro``.

    The benchmark measures the tree it sits in.  An installed ``repro``
    from somewhere else would be measured silently instead, so a checkout
    without ``src/repro`` is an error, not a fallback.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no sources to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    found = Path(repro.__file__).resolve()
    if SRC not in found.parents:
        raise BenchError(f"imported repro from {found}, not from {SRC}")


# ---------------------------------------------------------------- catalogue


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def metric_units(spec: dict, group: str) -> dict:
    """``{name: unit}`` of ``end_to_end`` or ``per_layer``, in file order."""
    return {m["name"]: m["unit"] for m in spec[group]}


# ------------------------------------------------------------------ numbers


def summarize(samples: list) -> dict:
    """Median, min and quartiles of one metric's per-repetition samples."""
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "min": ordered[0],
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
        "values": list(samples),
    }


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an already sorted list (q in [0, 100])."""
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def derived_seeds(seed: int, label: str, n: int) -> list:
    """``n`` program seeds derived from the workload seed (stable across runs)."""
    rng = random.Random(f"{label}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(n)]


# ------------------------------------------------------------------ hashing


def plain(obj):
    """Reduce results to JSON-safe plain data (tuple keys, dataclasses, sets)."""
    if isinstance(obj, dict):
        return {_key(k): plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(plain(v) for v in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return {name: plain(getattr(obj, name)) for name in obj.__dataclass_fields__}
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


def _key(key) -> str:
    if isinstance(key, tuple):
        return "->".join(str(part) for part in key)
    return str(key)


def result_hash(obj) -> str:
    """sha256 of the canonical JSON of what the program returned."""
    blob = json.dumps(plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -------------------------------------------------------------------- spans


class Spans:
    """Harness-side spans, kept in memory and written out when the run ends.

    A span is ``{id, parent, name, start, end, tags}``; ``parent`` is the
    span that was open when this one started.  The recorder is only ever
    wrapped around calls the harness makes itself or injects through a
    public parameter (a cache subclass, a wrapping backend, a wrapped
    ``point``), never placed inside ``src/``.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter() - self._origin,
            "end": None,
            "tags": tags,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._origin

    def add(self, name: str, start: float, end: float, **tags) -> None:
        """Record a finished span measured elsewhere (same clock), e.g. by a client thread."""
        self.spans.append(
            {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name,
                "start": start - self._origin,
                "end": end - self._origin,
                "tags": tags,
            }
        )


def self_times(spans: list) -> dict:
    """``{span id: duration minus the part of it that its direct children cover}``.

    Children may overlap (two client connections inside one repetition), so
    what they cover is the union of their intervals, not the sum.
    """
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def mean_us_by_name(spans: list) -> dict:
    """Mean duration in µs per span name."""
    sums: dict = {}
    for span in spans:
        total, count = sums.get(span["name"], (0.0, 0))
        sums[span["name"]] = (total + span["end"] - span["start"], count + 1)
    return {name: total / count * 1e6 for name, (total, count) in sums.items()}


# ---------------------------------------------------------- profile folding

#: packages under ``src/repro/`` that get a share of their own
SHARE_PACKAGES = (
    "sim", "network", "cluster", "app", "core", "baselines", "experiments", "analysis",
)


def fold_profile(profile) -> tuple:
    """Fold a ``cProfile.Profile`` into self-time shares per layer + raw call counts.

    Returns ``(shares, calls)``: ``shares`` maps ``sim`` .. ``analysis``,
    ``stdlib`` (builtins and the standard library: heapq, random, enum,
    dict/hash builtins) and ``other`` (the rest of ``repro`` and the
    harness itself) to fractions of total self time; ``calls`` maps
    ``(file relative to src/repro, function name)`` to its exact call count.
    Shares, not seconds: the profiler inflates Python-level calls.
    """
    import pstats

    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    repro_root = str(SRC / "repro") + os.sep
    bench_root = str(BENCH_DIR) + os.sep
    totals = dict.fromkeys((*SHARE_PACKAGES, "stdlib", "other"), 0.0)
    calls: dict = {}
    for (filename, _line, func), (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        if filename.startswith(repro_root):
            relative = filename[len(repro_root):]
            package = relative.split(os.sep, 1)[0]
            bucket = package if package in SHARE_PACKAGES else "other"
            calls[(relative, func)] = calls.get((relative, func), 0) + ncalls
        elif filename.startswith(bench_root):
            bucket = "other"
        else:
            bucket = "stdlib"
        totals[bucket] += tottime
    whole = sum(totals.values()) or 1.0
    return {name: value / whole for name, value in totals.items()}, calls


# ---------------------------------------------------------------------- env


def git_commit() -> str:
    """Current commit, read without running git (the driver's checkout has no ``.git``)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"


def load_average() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


def env_block(seed: int, smoke: bool, seconds: float, load_start: float) -> dict:
    """What two result files must share before they are compared."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_1min_start": load_start,
        "load_1min_end": load_average(),
        "git_commit": git_commit(),
        "seed": seed,
        "smoke": smoke,
        "seconds": seconds,
        "min_reps": SMOKE_MIN_REPS if smoke else MIN_REPS,
    }

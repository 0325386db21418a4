"""Tests for the parallel experiment engine: registry, cache, runner, CLI."""

import dataclasses
import errno
import hashlib
import json
import os
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.experiments import registry
from repro.experiments import cache as cache_module
from repro.experiments.cache import ResultCache, code_version_hash, point_key
from repro.experiments.registry import (
    SCALE_PROFILES,
    canonical_params,
    derive_seed,
    resolve_overrides,
)
from repro.experiments.runner import run_experiment
from tests.conftest import entry_count

TINY = {"nodes": 4, "total_time": 1800.0}

#: points json refuses with a TypeError (keys that do not sort, values it has
#: no form for); ids are spelled out because ``repr(object())`` holds an address
UNENCODABLE_POINTS = [
    pytest.param({1: "a", "b": 2}, id="mixed-keys"),
    pytest.param({"a": {2: 1, "x": 3}}, id="nested-mixed-keys"),
    pytest.param({"a": object()}, id="object-value"),
    pytest.param({"a": b"x"}, id="bytes-value"),
]


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        names = registry.names()
        for expected in (
            "table1",
            "table2",
            "table3",
            "no-gc",
            "figure5",
            "fig6-fig7",
            "fig8",
            "fig9",
            "overhead",
            "robustness",
            "mtbf",
            "scaling",
            "baselines",
            "ablation-transitive",
            "ablation-logging",
            "ablation-incremental",
            "ablation-replication",
            "ablation-gc-period",
        ):
            assert expected in names

    def test_listing_is_sorted_and_titled(self):
        experiments = registry.all_experiments()
        assert [e.name for e in experiments] == sorted(e.name for e in experiments)
        for exp in experiments:
            assert exp.title
            assert callable(exp.grid) and callable(exp.point) and callable(exp.reduce)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            registry.get("nope")

    def test_grid_kwargs_filters_unknown_keys(self):
        exp = registry.get("figure5")  # grid takes seed/nodes_per_cluster only
        kwargs = exp.grid_kwargs({"nodes": 10, "total_time": 60.0, "seed": 3})
        assert kwargs == {"seed": 3}

    def test_canonical_params_normalizes_tuples(self):
        assert canonical_params({"a": (1, 2)}) == {"a": [1, 2]}

    def test_canonical_params_rejects_non_json(self):
        with pytest.raises(ValueError, match="not JSON-serializable"):
            canonical_params({"a": object()})

    @pytest.mark.parametrize("bad", UNENCODABLE_POINTS)
    def test_canonical_params_names_the_point_it_rejects(self, bad):
        """The documented contract: a point that cannot round-trip is a
        ``ValueError`` showing the point, whatever json raised inside."""
        with pytest.raises(ValueError) as caught:
            canonical_params(bad)
        assert repr(bad) in str(caught.value)
        assert "TypeError" in str(caught.value)  # the cause is kept

    @pytest.mark.parametrize("bad", UNENCODABLE_POINTS)
    def test_build_grid_names_experiment_and_index_of_a_bad_point(self, bad):
        points = [{"i": 0}, {"i": 1}, {"i": 2}, bad, {"i": 4}]
        exp = dataclasses.replace(
            registry.get("table1"), name="bad-grid", grid=lambda: points
        )
        with pytest.raises(ValueError) as caught:
            exp.build_grid()
        message = str(caught.value)
        assert "'bad-grid'" in message and "grid point 3" in message
        assert repr(bad) in message

    def test_build_grid_turns_a_grid_that_rejects_its_kwargs_into_valueerror(self):
        """``delays_min=5`` where the grid iterates a list: the one error a
        caller has to catch is ``ValueError``, naming the experiment."""
        with pytest.raises(ValueError, match="experiment 'fig8': .*delays_min") as caught:
            registry.get("fig8").build_grid({"delays_min": 5})
        assert isinstance(caught.value.__cause__, TypeError)

    def test_duplicate_name_with_different_functions_rejected(self):
        table1 = registry.get("table1")
        clash = dataclasses.replace(
            registry.get("fig8"), name="table1"
        )
        with pytest.raises(ValueError, match="registered twice"):
            registry.register(clash)
        assert registry.get("table1") is table1  # original untouched

    def test_reregistering_same_declaration_is_idempotent(self):
        table1 = registry.get("table1")
        again = dataclasses.replace(table1, title="reloaded")
        registry.register(again)
        assert registry.get("table1") is again
        registry.register(table1)  # restore

    def test_parallel_runs_the_passed_experiment_not_the_registered_one(self):
        """The pool must execute exp.point, never a by-name registry lookup."""
        disguised = dataclasses.replace(
            registry.get("fig6-fig7"),
            point=canonical_params,  # module-level, picklable, echoes params
            reduce=lambda grid, points: points,
        )
        overrides = {"delays_min": [5, 15], **TINY, "seed": 2}
        serial = run_experiment(disguised, overrides=overrides, jobs=1)
        para = run_experiment(disguised, overrides=overrides, jobs=2)
        # a by-name lookup would have run the registered fig6-fig7 point
        # (returning CLC counts) in the workers instead of echoing params
        assert serial.result == para.result == disguised.build_grid(overrides)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "fig9", 3) == derive_seed(42, "fig9", 3)

    def test_distinct_components_distinct_seeds(self):
        seeds = {derive_seed(42, "fig9", i) for i in range(100)}
        assert len(seeds) == 100

    def test_root_seed_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_range(self):
        seed = derive_seed(0)
        assert 0 <= seed < 2**63


class TestCacheKeys:
    def test_stable_across_instances(self, tmp_path):
        a = ResultCache(tmp_path, code_hash="abc")
        b = ResultCache(tmp_path / "elsewhere", code_hash="abc")
        assert a.key("table1", {"x": 1}) == b.key("table1", {"x": 1})

    def test_param_order_irrelevant(self, tmp_path):
        cache = ResultCache(tmp_path, code_hash="abc")
        assert cache.key("t", {"a": 1, "b": 2}) == cache.key("t", {"b": 2, "a": 1})

    def test_params_change_key(self, tmp_path):
        cache = ResultCache(tmp_path, code_hash="abc")
        assert cache.key("t", {"a": 1}) != cache.key("t", {"a": 2})

    def test_experiment_name_changes_key(self, tmp_path):
        cache = ResultCache(tmp_path, code_hash="abc")
        assert cache.key("t1", {"a": 1}) != cache.key("t2", {"a": 1})

    def test_code_version_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, code_hash="version-1")
        new = ResultCache(tmp_path, code_hash="version-2")
        old.put("t", {"a": 1}, {"answer": 42})
        assert old.get("t", {"a": 1}) == {"answer": 42}
        assert new.get("t", {"a": 1}) is None

    def test_code_version_hash_is_sha256_hex(self):
        digest = code_version_hash()
        assert len(digest) == 64
        assert digest == code_version_hash()  # cached + stable


class TestCacheStore:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path, code_hash="h")
        assert cache.get("t", {"a": 1}) is None
        cache.put("t", {"a": 1}, {"rows": [1, 2, 3]})
        assert cache.get("t", {"a": 1}) == {"rows": [1, 2, 3]}
        assert cache.hits == 1 and cache.misses == 1
        assert entry_count(cache) == 1

    @pytest.mark.parametrize(
        "garbage",
        [b"not a pickle", b"garbage\n", b"", b"\x80\x05truncated"],
    )
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        cache = ResultCache(tmp_path, code_hash="h")
        cache.put("t", {"a": 1}, {"v": 1})
        path = cache.path(cache.key("t", {"a": 1}))
        path.write_bytes(garbage)
        assert cache.get("t", {"a": 1}) is None

    def test_an_entry_larger_than_one_read_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path, code_hash="h")
        value = {"blob": bytes(range(256)) * (3 * cache_module._READ_CHUNK // 256 + 7)}
        cache.put("t", {"a": 1}, value)
        assert cache.path(cache.key("t", {"a": 1})).stat().st_size > 3 * cache_module._READ_CHUNK
        assert cache.get("t", {"a": 1}) == value
        assert (cache.hits, cache.misses) == (1, 0)

    def test_no_read_leaves_a_descriptor_open(self, tmp_path):
        cache = ResultCache(tmp_path, code_hash="h")
        damages = {"truncated": _truncate, "empty": lambda path: path.write_bytes(b""),
                   "directory": _directory, "symlink-loop": _unreadable}
        for params in [{"a": name} for name in ("intact", *damages)]:
            cache.put("t", params, {"v": params})
        for name, damage in damages.items():
            damage(cache.path(cache.key("t", {"a": name})))
        open_fds = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            for params in [{"a": name} for name in ("intact", "missing", *damages)]:
                cache.get("t", params)
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert (cache.hits, cache.misses) == (3, 3 * (1 + len(damages)))

    def test_put_closes_fd_when_fdopen_fails(self, tmp_path, monkeypatch):
        """os.fdopen raising must not leak mkstemp's raw fd or its file."""
        import os

        cache = ResultCache(tmp_path, code_hash="h")
        closed = []
        real_close = os.close
        monkeypatch.setattr(os, "close", lambda fd: (closed.append(fd), real_close(fd)))
        monkeypatch.setattr(
            os, "fdopen", lambda fd, *a, **k: (_ for _ in ()).throw(MemoryError("no fds"))
        )
        with pytest.raises(MemoryError):
            cache.put("t", {"a": 1}, 1)
        assert closed, "the raw mkstemp fd was never closed"
        assert not list(tmp_path.rglob("*.tmp")), "the temp file was left behind"


# JSON-shaped values as a grid function may write them: tuples for lists,
# nested dicts, bools, None, ints past 64 bits, finite floats
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=10,
)
_GRIDS = st.lists(st.dictionaries(st.text(max_size=4), _VALUES, max_size=5), max_size=6)

#: points no grid may hold: the ones json refuses with a TypeError, one it
#: refuses with a ValueError, and one that survives encoding but decodes as a
#: different point (``{"1": 2}``) than was written
_BAD_POINTS = [
    *(param.values[0] for param in UNENCODABLE_POINTS),
    {"a": float("nan")},
    {1: 2},
]


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-7])


def _directory(path):
    path.unlink()
    path.mkdir()


def _unreadable(path):
    path.unlink()
    path.symlink_to(path)  # ELOOP: unreadable even to root, unlike chmod 000


def _fixed_grid_experiment(grid, **changes):
    return dataclasses.replace(
        registry.get("table1"), name="fixed-grid", grid=lambda: grid, **changes
    )


class TestSameAnswersAsBefore:
    """The sweep engine validates a grid and derives a key in fewer steps
    than it used to; what it answers -- and what is on disk -- is pinned to
    the longer recipes, which stay here as the reference."""

    @given(_GRIDS)
    @settings(max_examples=150, deadline=None)
    def test_whole_grid_validation_equals_the_per_point_recipe(self, grid):
        built = _fixed_grid_experiment(grid).build_grid()
        reference = [
            json.loads(json.dumps(params, sort_keys=True, allow_nan=False))
            for params in grid
        ]
        assert built == reference == [canonical_params(params) for params in grid]
        # == ignores key order; the unsorted encoding does not, at any depth
        assert json.dumps(built) == json.dumps(reference)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_a_finite_float_is_its_own_json_round_trip(self, x):
        """Why ``_jsonify`` may hand floats back untouched."""
        assert json.loads(json.dumps(x)) == x

    @given(_GRIDS, st.sampled_from(_BAD_POINTS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_bad_point_raises_its_per_point_error(self, grid, bad, data):
        index = data.draw(st.integers(min_value=0, max_value=len(grid)))
        grid = [*grid[:index], bad, *grid[index:]]
        with pytest.raises(ValueError) as alone:
            canonical_params(bad)
        with pytest.raises(ValueError) as in_grid:
            _fixed_grid_experiment(grid).build_grid()
        assert str(in_grid.value) == (
            f"experiment 'fixed-grid', grid point {index}: {alone.value}"
        )

    @pytest.mark.parametrize(
        "experiment, params, code, expected",
        [
            ("table1", {"nodes": 4, "total_time": 1800.0, "seed": 1}, "c0de",
             "4450dff9f6738b19231505e837c3fc93c8d3c4a7ffc035b74c05bd92d27bef80"),
            ("fig9", {"seed": 7, "nodes": [2, 4, 8], "ratio": 0.25, "label": "µ×é"},
             "c0de",
             "48552526212373a100db45d11898cb43f69eb3b98caf4052e9192ea0e841e661"),
            ("protocol-tournament",
             {"options": {"predicate": "bcs", "gc": None}, "big": 2**70, "flag": True},
             "0" * 64,
             "df3bd4b086334776880a58b1591bf83cbea5189432e0cc460b996114bc814f36"),
            ("x", {}, "",
             "221e8d398bb4e1567841d91321dd8e733d94547bc5d6d194fafc41b90446417f"),
        ],
        ids=["table1", "fig9-unicode", "nested-bigint", "empty"],
    )
    def test_point_keys_are_the_ones_on_disk(self, experiment, params, code, expected):
        """Literals computed at commit efa357e: every cache entry, resume
        snapshot and ``/grid`` answer written so far is addressed by them."""
        assert point_key(experiment, params, code) == expected
        assert ResultCache("unused", code_hash=code).key(experiment, params) == expected

    @given(
        st.dictionaries(st.text(max_size=4), _VALUES, max_size=5),
        st.one_of(st.sampled_from(['"', "\\", 'a"b\\c', "µ×é", "", "params"]), st.text()),
        st.one_of(st.sampled_from(["", '"', "0" * 64]), st.text()),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_key_hashes_the_long_recipe(self, params, experiment, code):
        material = json.dumps(
            {"code": code, "experiment": experiment, "params": params}, sort_keys=True
        )
        expected = hashlib.sha256(material.encode()).hexdigest()
        assert point_key(experiment, params, code) == expected
        assert ResultCache("unused", code_hash=code).key(experiment, params) == expected

    def test_threads_sharing_one_key_prefix_derive_the_serial_keys(self):
        grid = [{"seed": i, "x": [i, 0.5 * i], "name": "n" * (i % 7)} for i in range(400)]
        cache = ResultCache("unused", code_hash="c0de")
        serial = [cache.key("shared", params) for params in grid]
        results: dict = {}
        start = threading.Barrier(8)

        def derive(worker: int) -> None:
            start.wait()
            results[worker] = [cache.key("shared", params) for params in grid]

        threads = [threading.Thread(target=derive, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between nearly every copy()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {i: serial for i in range(8)}
        assert [point_key("shared", params, "c0de") for params in grid] == serial

    GRID = [{"x": 0.1 * i, "tags": ["a", i], "opt": {"k": None}} for i in range(5)]

    def _filled_as_before(self, root, experiment):
        """A cache directory as the parent commit's code wrote it: its key
        recipe and its path arithmetic, spelled out.  Returns the entry paths."""
        paths = []
        for params in experiment.build_grid():
            material = json.dumps(
                {"code": code_version_hash(), "experiment": experiment.name, "params": params},
                sort_keys=True,
            )
            key = hashlib.sha256(material.encode()).hexdigest()
            path = root / key[:2] / f"{key}.pkl"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pickle.dumps({"echo": params}, protocol=pickle.HIGHEST_PROTOCOL))
            paths.append(path)
        return paths

    def test_a_cache_written_by_the_old_recipe_is_served_warm(self, tmp_path):
        def never(params):
            raise AssertionError("point re-executed despite a filled cache")

        experiment = _fixed_grid_experiment(
            self.GRID, point=never, reduce=lambda grid, points: points
        )
        self._filled_as_before(tmp_path, experiment)
        cache = ResultCache(tmp_path)
        report = run_experiment(experiment, cache=cache)
        assert "(5 cached, 0 executed" in report.summary()
        assert report.result == [{"echo": params} for params in report.grid]
        assert (cache.hits, cache.misses) == (5, 0)

    @pytest.mark.parametrize("damage", [_truncate, _directory, _unreadable])
    def test_a_damaged_entry_is_one_miss(self, tmp_path, damage):
        experiment = _fixed_grid_experiment(self.GRID)
        paths = self._filled_as_before(tmp_path, experiment)
        damage(paths[2])
        cache = ResultCache(tmp_path)
        values = [cache.get(experiment.name, params) for params in experiment.build_grid()]
        assert [value is None for value in values] == [False, False, True, False, False]
        assert (cache.hits, cache.misses) == (4, 1)

    @pytest.mark.parametrize("damage", [_truncate, _unreadable])
    def test_a_damaged_entry_is_recomputed_and_rewritten(self, tmp_path, damage):
        experiment = _fixed_grid_experiment(
            self.GRID, point=_echo, reduce=lambda grid, points: points
        )
        paths = self._filled_as_before(tmp_path, experiment)
        damage(paths[2])
        cache = ResultCache(tmp_path)
        report = run_experiment(experiment, cache=cache)
        assert (report.cache_hits, report.executed, cache.misses) == (4, 1, 1)
        assert report.result == [{"echo": params} for params in report.grid]
        again = run_experiment(experiment, cache=cache)
        assert (again.cache_hits, again.executed) == (5, 0)

    def test_a_directory_entry_is_recomputed_every_sweep(self, tmp_path):
        """``put`` cannot replace a directory: it leaves it, and the sweep
        finishes with the computed value instead of failing."""
        experiment = _fixed_grid_experiment(
            self.GRID, point=_echo, reduce=lambda grid, points: points
        )
        paths = self._filled_as_before(tmp_path, experiment)
        _directory(paths[2])
        for _ in range(2):
            report = run_experiment(experiment, cache=ResultCache(tmp_path))
            assert (report.cache_hits, report.executed) == (4, 1)
            assert report.result == [{"echo": params} for params in report.grid]
        assert paths[2].is_dir()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_put_still_raises_any_other_os_error(self, tmp_path, monkeypatch):
        def no_space(src, dst):
            raise OSError(errno.ENOSPC, "No space left on device")

        cache = ResultCache(tmp_path, code_hash="h")
        monkeypatch.setattr(os, "replace", no_space)
        with pytest.raises(OSError) as exc:
            cache.put("t", {"a": 1}, 1)
        assert exc.value.errno == errno.ENOSPC
        assert not list(tmp_path.rglob("*.tmp"))


def _echo(params):
    return {"echo": params}


class TestRunner:
    def test_serial_matches_parallel(self):
        overrides = {"delays_min": [5, 15, 30], **TINY, "seed": 2}
        serial = run_experiment("fig6-fig7", overrides=overrides, jobs=1)
        para = run_experiment("fig6-fig7", overrides=overrides, jobs=4)
        assert serial.result.xs == para.result.xs
        assert serial.result.series == para.result.series
        assert serial.points == para.points == 3

    def test_second_run_is_fully_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        overrides = {**TINY, "seed": 3}
        first = run_experiment("table1", overrides=overrides, cache=cache)
        assert first.executed == first.points == 1
        again = run_experiment("table1", overrides=overrides, cache=cache)
        assert again.executed == 0
        assert again.cache_hits == again.points == 1
        assert again.result.render() == first.result.render()

    def test_cached_run_never_recomputes(self, tmp_path):
        """A poisoned point function proves hits bypass execution entirely."""
        cache = ResultCache(tmp_path)
        overrides = {**TINY, "seed": 9}
        run_experiment("table1", overrides=overrides, cache=cache)

        def _exploding_point(params):
            raise AssertionError("point re-executed despite warm cache")

        poisoned = dataclasses.replace(
            registry.get("table1"), point=_exploding_point
        )
        report = run_experiment(poisoned, overrides=overrides, cache=cache)
        assert report.executed == 0 and report.cache_hits == 1

    def test_partial_cache_only_runs_missing_points(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = {**TINY, "seed": 2}
        run_experiment(
            "fig6-fig7", overrides={"delays_min": [5, 15], **base}, cache=cache
        )
        grown = run_experiment(
            "fig6-fig7", overrides={"delays_min": [5, 15, 30], **base}, cache=cache
        )
        assert grown.points == 3
        assert grown.cache_hits == 2 and grown.executed == 1

    def test_misspelt_backend_fails_on_a_cold_cache(self, tmp_path):
        with pytest.raises(ValueError, match="unknown backend 'slrum'"):
            run_experiment(
                "table1", overrides={**TINY, "seed": 5},
                cache=ResultCache(tmp_path), backend="slrum",
            )

    def test_misspelt_backend_fails_on_a_warm_cache(self, tmp_path):
        """The name is checked before the cache is read: a sweep with no
        point to execute refuses it too, instead of reporting it."""
        cache = ResultCache(tmp_path)
        overrides = {**TINY, "seed": 5}
        run_experiment("table1", overrides=overrides, cache=cache)
        with pytest.raises(ValueError, match="unknown backend 'slrum'"):
            run_experiment("table1", overrides=overrides, cache=cache, backend="slrum")

    def test_no_cache_executes_every_time(self):
        report = run_experiment("table1", overrides={**TINY, "seed": 4})
        assert report.cache_hits == 0 and report.executed == 1

    def test_seed_changes_escape_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment("table1", overrides={**TINY, "seed": 1}, cache=cache)
        other = run_experiment("table1", overrides={**TINY, "seed": 2}, cache=cache)
        assert other.executed == 1 and other.cache_hits == 0

    def test_empty_sequences_fall_back_to_default_grids(self):
        # pre-engine semantics: `delays_min or DEFAULT` treated [] like None
        assert len(registry.get("fig6-fig7").build_grid({"delays_min": []})) == 9
        assert len(registry.get("fig8").build_grid({"delays_min": []})) == 7
        assert len(registry.get("fig9").build_grid({"message_counts": []})) == 6
        assert len(registry.get("robustness").build_grid({"seeds": []})) == 10

    def test_empty_grid_is_an_error(self):
        empty = dataclasses.replace(
            registry.get("table1"), grid=lambda: []
        )
        with pytest.raises(ValueError, match="empty grid"):
            run_experiment(empty)

    def test_robustness_root_seed_derives_distinct_streams(self):
        grid = registry.get("robustness").build_grid({"seed": 7, **TINY})
        seeds = [p["seed"] for p in grid]
        assert len(seeds) == len(set(seeds)) == 10
        assert grid == registry.get("robustness").build_grid({"seed": 7, **TINY})
        default = registry.get("robustness").build_grid(TINY)
        assert [p["seed"] for p in default] == list(range(1, 11))


class TestSweepCli:
    def test_list_enumerates_all_experiments(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for name in registry.names():
            assert name in out

    def test_sweep_runs_and_reports(self, tmp_path, capsys):
        rc = main(
            ["sweep", "table1", "--scale", "tiny", "--jobs", "2",
             "--cache-dir", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "[sweep] table1: 1 points" in out
        assert "jobs=2, backend=local)" in out and "[hosts: local=1]" in out

    def test_sweep_json_output(self, tmp_path, capsys):
        rc = main(
            ["sweep", "fig8", "--scale", "tiny", "--no-cache", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig8"
        assert payload["series"]["c0 total"]
        assert payload["points"] == len(payload["xs"])
        assert payload["backend"] == "local" and payload["retries"] == 0
        assert payload["host_counts"] == {"local": payload["points"]}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "nope"])

    def test_name_required_without_list(self):
        with pytest.raises(SystemExit):
            main(["sweep"])

    def test_a_set_value_the_grid_rejects_is_a_clean_exit(self, tmp_path):
        with pytest.raises(SystemExit, match="experiment 'fig8': .*delays_min"):
            main(["sweep", "fig8", "--scale", "tiny", "--set", "delays_min=5",
                  "--cache-dir", str(tmp_path)])

    @pytest.mark.parametrize("verb", [["sweep", "table1"], ["ablate"]])
    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_below_one_is_refused(self, verb, jobs, capsys):
        with pytest.raises(SystemExit) as caught:
            main([*verb, "--scale", "tiny", "--no-cache", "--jobs", jobs])
        assert caught.value.code == 2
        assert "--jobs: expected an integer >= 1" in capsys.readouterr().err

    def test_unscaled_experiment_ignores_scale_profile(self, capsys):
        rc = main(["sweep", "figure5", "--scale", "tiny", "--no-cache"])
        assert rc == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_scale_profiles_complete(self):
        assert set(SCALE_PROFILES) == {"full", "small", "tiny"}

    def test_explicit_seed_never_silently_dropped(self):
        seedless = dataclasses.replace(
            registry.get("table1"), grid=lambda nodes=4: [{"nodes": nodes}]
        )
        with pytest.raises(ValueError, match="does not accept seed"):
            resolve_overrides(seedless, "tiny", seed=9)

    def test_seed_flag_reaches_robustness(self, capsys):
        rc = main(
            ["sweep", "robustness", "--scale", "tiny", "--no-cache", "--seed", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "10 points" in out
        assert "seeds: [1, 2, 3" not in out  # derived, not the historical list

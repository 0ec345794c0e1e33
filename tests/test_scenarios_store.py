"""Tests for the persistent on-disk artifact store (repro.scenarios.store).

The headline acceptance tests live here: a second invocation of an
identical sweep — serial via a fresh cache, or *parallel* across pool
workers — performs zero new ``simulate()`` calls because every mapping and
simulation is served from the shared on-disk store; plus the store's
versioning/corruption-tolerance rules and the compact ``NetworkMapping``
round trip.
"""

import json
import logging
import pickle

import pytest

from repro.arch import ArchConfig
from repro.core import OptimizationLevel
from repro.core.mapping import MAPPING_PAYLOAD_VERSION, NetworkMapping
from repro.scenarios import (
    ArtifactCache,
    ArtifactStore,
    Scenario,
    ScenarioGrid,
    SweepRunner,
    mapping_stage,
    run_scenario,
    simulation_stage,
    workload_stage,
)
from repro.scenarios import pipeline as pipeline_module
from repro.scenarios.cli import main as cli_main
from repro.scenarios.store import SCHEMA_VERSION

TINY = Scenario(
    model="tiny_cnn",
    input_shape=(3, 32, 32),
    num_classes=10,
    n_clusters=16,
    batch_size=2,
    level="final",
)
GRID = ScenarioGrid.from_axes(
    base=TINY, name="store-sweep", crossbar_size=(128, 256), batch_size=(2, 4)
)


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def counting_simulate(monkeypatch):
    """Patch the pipeline's simulate with a call counter (fork-safe)."""
    calls = []
    real = pipeline_module.simulate

    def wrapper(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, "simulate", wrapper)
    return calls


class TestStoreBasics:
    def test_roundtrip_and_miss(self, store):
        assert store.load("simulation", "a" * 64) is None
        store.store("simulation", "a" * 64, {"x": (1, 2)})
        assert store.load("simulation", "a" * 64) == {"x": (1, 2)}
        assert store.size("simulation") == 1
        assert len(store) == 1
        # other regions do not see the key
        assert store.load("mapping", "a" * 64) is None

    def test_default_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-root"))
        assert ArtifactStore().root == tmp_path / "env-root"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert ArtifactStore().root.name == "repro"

    def test_malformed_keys_rejected(self, store):
        with pytest.raises(ValueError, match="malformed artifact key"):
            store.load("simulation", "../escape")
        with pytest.raises(ValueError, match="malformed artifact key"):
            store.store("simulation", "", 1)

    def test_last_writer_wins(self, store):
        store.store("mapping", "k" * 64, "first")
        store.store("mapping", "k" * 64, "second")
        assert store.load("mapping", "k" * 64) == "second"
        assert store.size("mapping") == 1

    def test_unpicklable_payload_degrades_instead_of_failing(self, store):
        """A persist failure must never discard a successfully built artifact."""
        import threading

        unpicklable = threading.Lock()
        cache = ArtifactCache(store=store)
        with pytest.warns(RuntimeWarning, match="failed to persist"):
            value = cache.get_or_create(
                "simulation", "k" * 64, lambda: unpicklable, persist=True
            )
        assert value is unpicklable  # the build result survives
        assert cache.stats.miss_count("simulation") == 1
        assert store.load("simulation", "k" * 64) is None

    def test_clear_drops_current_namespace_only(self, store):
        store.store("mapping", "k" * 64, 1)
        assert len(store) == 1
        store.clear()
        assert len(store) == 0
        assert store.load("mapping", "k" * 64) is None
        store.store("mapping", "k" * 64, 2)  # still writable afterwards
        assert store.load("mapping", "k" * 64) == 2

    def test_unwritable_root_degrades_with_one_warning(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the store root should be")
        bad = ArtifactStore(blocked)
        with pytest.warns(RuntimeWarning, match="failed to persist"):
            bad.store("mapping", "k" * 64, 1)
        # second failure is silent, loads still behave as misses
        bad.store("mapping", "j" * 64, 2)
        assert bad.load("mapping", "k" * 64) is None


class TestStoreRobustness:
    def _entry_path(self, store, region, key):
        store.store(region, key, {"payload": True})
        path = store._path(region, key)
        assert path.exists()
        return path

    def test_truncated_entry_reads_as_miss_and_is_discarded(self, store, caplog):
        key = "b" * 64
        path = self._entry_path(store, "simulation", key)
        path.write_bytes(path.read_bytes()[:10])
        with caplog.at_level(logging.WARNING, logger="repro.scenarios.store"):
            assert store.load("simulation", key) is None
        assert not path.exists()  # discarded so it is rebuilt exactly once
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        for part in ("simulation", key, str(path), "unreadable"):
            assert part in message
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.scenarios.store"):
            assert store.load("simulation", key) is None  # plain miss: silent
        assert not caplog.records

    def test_garbage_entry_reads_as_miss(self, store):
        key = "c" * 64
        path = self._entry_path(store, "workload", key)
        path.write_bytes(b"\x00not a pickle at all")
        assert store.load("workload", key) is None

    def test_stale_schema_version_reads_as_miss(self, store):
        key = "d" * 64
        path = self._entry_path(store, "mapping", key)
        envelope = pickle.loads(path.read_bytes())
        envelope["schema"] = SCHEMA_VERSION + 1
        path.write_bytes(pickle.dumps(envelope))
        assert store.load("mapping", key) is None

    def test_stale_canonical_version_reads_as_miss(self, store):
        key = "e" * 64
        path = self._entry_path(store, "mapping", key)
        envelope = pickle.loads(path.read_bytes())
        envelope["canonical"] = envelope["canonical"] + 1
        path.write_bytes(pickle.dumps(envelope))
        assert store.load("mapping", key) is None

    def test_mismatched_addressing_reads_as_miss(self, store, caplog):
        key = "f" * 64
        path = self._entry_path(store, "mapping", key)
        envelope = pickle.loads(path.read_bytes())
        envelope["key"] = "g" * 64
        path.write_bytes(pickle.dumps(envelope))
        with caplog.at_level(logging.WARNING, logger="repro.scenarios.store"):
            assert store.load("mapping", key) is None
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        for part in ("mapping", key, str(path), "envelope mismatch"):
            assert part in message

    @staticmethod
    def _rewrite_envelope(path, **changes):
        envelope = pickle.loads(path.read_bytes())
        envelope.update(changes)
        path.write_bytes(pickle.dumps(envelope))

    @pytest.mark.parametrize(
        "corrupt, reason",
        [
            (lambda path: path.write_bytes(b""), "unreadable"),
            (lambda path: path.write_bytes(b"\x00not a pickle at all"), "unreadable"),
            (lambda path: path.write_bytes(pickle.dumps(["payload"])), "envelope mismatch"),
            (
                lambda path: TestStoreRobustness._rewrite_envelope(path, schema=SCHEMA_VERSION + 1),
                "envelope mismatch",
            ),
            (
                lambda path: TestStoreRobustness._rewrite_envelope(path, canonical=-1),
                "envelope mismatch",
            ),
            (
                lambda path: TestStoreRobustness._rewrite_envelope(path, region="mapping"),
                "envelope mismatch",
            ),
        ],
        ids=["empty", "garbage", "not-an-envelope", "stale-schema", "stale-canonical",
             "wrong-region"],
    )
    def test_every_discard_logs_one_warning_with_its_reason(
        self, store, caplog, corrupt, reason
    ):
        key = "k" * 64
        path = self._entry_path(store, "workload", key)
        corrupt(path)
        with caplog.at_level(logging.WARNING, logger="repro.scenarios.store"):
            assert store.load("workload", key) is None
        assert not path.exists()
        [record] = caplog.records
        assert record.name == "repro.scenarios.store"
        assert record.levelno == logging.WARNING
        message = record.getMessage()
        for part in ("workload", key, str(path), reason):
            assert part in message

    def test_healthy_hit_is_silent(self, store, caplog):
        key = "m" * 64
        self._entry_path(store, "simulation", key)
        with caplog.at_level(logging.DEBUG, logger="repro.scenarios.store"):
            assert store.load("simulation", key) == {"payload": True}
        assert not caplog.records

    def test_plain_miss_is_silent(self, store, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.scenarios.store"):
            assert store.load("simulation", "n" * 64) is None
        assert not caplog.records

    def test_corrupt_entry_warns_once_across_its_rebuild(self, store, caplog):
        key = "p" * 64
        build = lambda: "artifact"
        ArtifactCache(store=store).get_or_create("mapping", key, build, persist=True)
        store._path("mapping", key).write_bytes(b"rot")
        with caplog.at_level(logging.WARNING, logger="repro.scenarios.store"):
            for _ in range(2):  # two fresh processes on the same disk
                fresh = ArtifactCache(store=store)
                assert fresh.get_or_create("mapping", key, build, persist=True) == "artifact"
        assert len(caplog.records) == 1  # the rewritten entry loads cleanly

    def test_corrupt_entry_is_rebuilt_through_the_cache(self, store):
        cache = ArtifactCache(store=store)
        builds = []
        key = "h" * 64
        build = lambda: builds.append(1) or "artifact"
        cache.get_or_create("simulation", key, build, persist=True)
        store._path("simulation", key).write_bytes(b"rot")
        fresh = ArtifactCache(store=store)  # new process, warm disk
        assert fresh.get_or_create("simulation", key, build, persist=True) == "artifact"
        assert len(builds) == 2  # corrupt entry forced one rebuild
        assert fresh.get_or_create("simulation", key, build, persist=True) == "artifact"
        assert len(builds) == 2

    def test_pr4_simulation_payloads_read_as_misses_and_rebuild_once(self, tmp_path):
        """The PR 5 payload-version bump invalidates PR 4-era store entries.

        PR 5 bumped SIMULATION_PAYLOAD_VERSION (per-stage completion traces
        on the tracer, the fast_forwarded provenance flag): a warm store
        written under the old stamp must read as a miss, rebuild exactly
        once, and serve the rebuilt entry from disk afterwards.
        """
        from repro.sim.system import SIMULATION_PAYLOAD_VERSION

        assert SIMULATION_PAYLOAD_VERSION == 4  # bumped in PR 10 (3 since PR 5)
        store = ArtifactStore(tmp_path / "sim-payload-store")
        cache = ArtifactCache(store=store)
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(
            graph, arch, TINY.batch_size, OptimizationLevel.FINAL, cache=cache
        )
        workload = workload_stage(mapping, cache=cache)
        result = simulation_stage(arch, workload, cache=cache)
        # stamp every persisted simulation payload as the PR 4 schema
        region_dir = store._namespace / "simulation"
        stamped = 0
        for path in region_dir.rglob("*"):
            if not path.is_file():
                continue
            envelope = pickle.loads(path.read_bytes())
            envelope["payload"]["version"] = 1
            path.write_bytes(pickle.dumps(envelope))
            stamped += 1
        assert stamped == 1
        fresh = ArtifactCache(store=store)  # a new process over the old store
        mapping2 = mapping_stage(
            graph, arch, TINY.batch_size, OptimizationLevel.FINAL, cache=fresh
        )
        workload2 = workload_stage(mapping2, cache=fresh)
        rebuilt = simulation_stage(arch, workload2, cache=fresh)
        assert fresh.stats.miss_count("simulation") == 1  # rebuilt, not served
        assert fresh.stats.disk_hit_count("simulation") == 0
        assert rebuilt.record() == result.record()
        # rebuilt once: the refreshed entry serves the next process from disk
        third = ArtifactCache(store=store)
        mapping3 = mapping_stage(
            graph, arch, TINY.batch_size, OptimizationLevel.FINAL, cache=third
        )
        workload3 = workload_stage(mapping3, cache=third)
        served = simulation_stage(arch, workload3, cache=third)
        assert third.stats.miss_count("simulation") == 0
        assert third.stats.disk_hit_count("simulation") == 1
        assert served.record() == result.record()

    def test_pr5_simulation_payloads_read_as_misses_and_rebuild_once(self, tmp_path):
        """The PR 9 payload-version bump invalidates PR 5-era store entries.

        PR 9 bumped SIMULATION_PAYLOAD_VERSION 2 -> 3 (the tracer gained the
        per-request completion map of open-system workloads): a warm store
        written under the v2 stamp must read as a miss, rebuild exactly
        once, and serve the rebuilt entry from disk afterwards.
        """
        store = ArtifactStore(tmp_path / "sim-v2-store")
        cache = ArtifactCache(store=store)
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(
            graph, arch, TINY.batch_size, OptimizationLevel.FINAL, cache=cache
        )
        workload = workload_stage(mapping, cache=cache)
        result = simulation_stage(arch, workload, cache=cache)
        # stamp every persisted simulation payload as the PR 5 schema
        region_dir = store._namespace / "simulation"
        stamped = 0
        for path in region_dir.rglob("*"):
            if not path.is_file():
                continue
            envelope = pickle.loads(path.read_bytes())
            envelope["payload"]["version"] = 2
            path.write_bytes(pickle.dumps(envelope))
            stamped += 1
        assert stamped == 1
        fresh = ArtifactCache(store=store)  # a new process over the old store
        rebuilt = simulation_stage(arch, workload, cache=fresh)
        assert fresh.stats.miss_count("simulation") == 1  # rebuilt, not served
        assert fresh.stats.disk_hit_count("simulation") == 0
        assert rebuilt.record() == result.record()
        # rebuilt once: the refreshed entry serves the next process from disk
        third = ArtifactCache(store=store)
        served = simulation_stage(arch, workload, cache=third)
        assert third.stats.miss_count("simulation") == 0
        assert third.stats.disk_hit_count("simulation") == 1
        assert served.record() == result.record()

    def test_stale_payload_version_forces_rebuild(self, tmp_path):
        """A future MAPPING_PAYLOAD_VERSION bump must read as a miss."""
        store = ArtifactStore(tmp_path / "payload-store")
        cache = ArtifactCache(store=store)
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(
            graph, arch, TINY.batch_size, OptimizationLevel.FINAL, cache=cache
        )
        # corrupt every persisted mapping payload's version stamp
        region_dir = store._namespace / "mapping"
        stamped = 0
        for path in region_dir.rglob("*"):
            if not path.is_file():
                continue
            envelope = pickle.loads(path.read_bytes())
            envelope["payload"]["version"] = MAPPING_PAYLOAD_VERSION + 1
            path.write_bytes(pickle.dumps(envelope))
            stamped += 1
        assert stamped == 1
        fresh = ArtifactCache(store=store)
        rebuilt = mapping_stage(
            graph, arch, TINY.batch_size, OptimizationLevel.FINAL, cache=fresh
        )
        assert fresh.stats.miss_count("mapping") == 1  # rebuilt, not served
        assert fresh.stats.disk_hit_count("mapping") == 0
        assert rebuilt.record() == mapping.record()


class TestMappingPayload:
    def test_round_trip_equality(self):
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(graph, arch, 4, OptimizationLevel.FINAL)
        payload = mapping.to_payload()
        restored = NetworkMapping.from_payload(payload, graph, arch)
        assert restored == mapping
        assert restored.record() == mapping.record()
        assert restored.summary() == mapping.summary()

    def test_payload_is_compact_plain_data(self):
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(graph, arch, 2, OptimizationLevel.NAIVE)
        payload = mapping.to_payload()
        # the graph and arch are re-attached by the loader, never stored
        assert "graph" not in payload and "arch" not in payload
        assert payload["version"] == MAPPING_PAYLOAD_VERSION
        # survives a pickle round trip as pure data (no live objects)
        assert pickle.loads(pickle.dumps(payload)) == payload

    def test_unknown_version_rejected(self):
        graph, arch = TINY.build_graph(), TINY.build_arch()
        mapping = mapping_stage(graph, arch, 2, OptimizationLevel.NAIVE)
        payload = dict(mapping.to_payload(), version=MAPPING_PAYLOAD_VERSION + 1)
        with pytest.raises(ValueError, match="stale artifact"):
            NetworkMapping.from_payload(payload, graph, arch)


class TestWarmFromDisk:
    def test_second_process_runs_zero_simulations(self, store, monkeypatch):
        """A fresh cache over a warm store rebuilds nothing at all."""
        calls = counting_simulate(monkeypatch)
        cold = run_scenario(TINY, ArtifactCache(store=store))
        assert len(calls) == 1
        warm_cache = ArtifactCache(store=store)  # simulates a new process
        warm = run_scenario(TINY, warm_cache)
        assert len(calls) == 1  # zero new simulate() calls
        assert warm_cache.stats.miss_count("simulation") == 0
        assert warm_cache.stats.disk_hit_count("simulation") == 1
        assert warm_cache.stats.disk_hit_count("mapping") == 1
        assert warm_cache.stats.disk_hit_count("workload") == 1
        assert warm.metrics == cold.metrics
        assert warm.simulation == cold.simulation
        assert warm.mapping == cold.mapping

    def test_disk_served_results_match_fresh_builds_exactly(self, store):
        outcomes = {}
        for label in ("cold", "warm"):
            cache = ArtifactCache(store=store)
            outcomes[label] = SweepRunner(max_workers=1, cache=cache).run(GRID)
        for cold, warm in zip(outcomes["cold"], outcomes["warm"]):
            assert cold.metrics == warm.metrics
            assert cold.simulation == warm.simulation

    def test_disk_served_simulation_supports_breakdown_analysis(self, store):
        """Rehydrated results keep the tracer: they are not second-class."""
        from repro.analysis.breakdown import breakdown_summary, cluster_breakdown

        graph, arch = TINY.build_graph(), TINY.build_arch()
        for _ in range(2):
            cache = ArtifactCache(store=store)
            mapping = mapping_stage(
                graph, arch, 2, OptimizationLevel.FINAL, cache=cache
            )
            workload = workload_stage(mapping, cache=cache)
            result = simulation_stage(arch, workload, cache=cache)
        assert cache.stats.disk_hit_count("simulation") == 1
        rows = cluster_breakdown(result, mapping)
        assert rows and breakdown_summary(rows)["mean_busy_fraction"] > 0.0

    def test_parallel_workers_share_the_store(self, store):
        """Cold parallel run populates; warm parallel run rebuilds nothing.

        The aggregated worker cache statistics prove it: misses count
        builds, so zero misses in the mapping/workload/simulation regions
        means zero new optimizer/lowering/simulate() executions across
        every worker process.
        """
        scenarios = GRID.expand()
        cold_runner = SweepRunner(
            max_workers=2, cache=ArtifactCache(store=store), on_error="record"
        )
        cold = cold_runner.run(scenarios)
        assert len(cold) == len(scenarios) and not cold.failures
        assert store.size("simulation") == len(scenarios)
        assert cold.cache_stats is not None
        assert cold.cache_stats.miss_count("simulation") == len(scenarios)

        warm_runner = SweepRunner(
            max_workers=2, cache=ArtifactCache(store=store), on_error="record"
        )
        warm = warm_runner.run(scenarios)
        assert len(warm) == len(scenarios) and not warm.failures
        assert warm.cache_stats is not None
        for region in ("mapping", "workload", "simulation"):
            assert warm.cache_stats.miss_count(region) == 0, region
        assert warm.cache_stats.disk_hit_count("simulation") == len(scenarios)
        for before, after in zip(cold, warm):
            assert before.metrics == after.metrics

    def test_parallel_run_with_store_does_not_warn_about_cold_workers(self, store):
        import warnings as warnings_module

        runner = SweepRunner(max_workers=2, cache=ArtifactCache(store=store))
        runner.run([TINY])  # warm the in-memory cache
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error", RuntimeWarning)
            try:
                runner.run(GRID.expand()[:2])
            except RuntimeWarning as warning:  # pragma: no cover - diagnostic
                assert "process-local" not in str(warning)


class TestSweepContract:
    def test_outcomes_and_failures_carry_input_indices(self):
        impossible = Scenario(model="resnet18", input_shape=(3, 64, 64), n_clusters=2)
        feasible_a = TINY
        feasible_b = TINY.replace(batch_size=4)
        runner = SweepRunner(max_workers=1, on_error="record")
        result = runner.run([feasible_a, impossible, feasible_b])
        assert [o.index for o in result.outcomes] == [0, 2]
        assert [f.index for f in result.failures] == [1]
        # realignment: index maps every record back to the submitted list
        submitted = [feasible_a, impossible, feasible_b]
        for outcome in result.outcomes:
            assert submitted[outcome.index] == outcome.scenario
        for failure in result.failures:
            assert submitted[failure.index] == failure.scenario

    def test_as_dict_includes_indices_and_cache_stats(self):
        runner = SweepRunner(max_workers=1, on_error="record")
        impossible = Scenario(model="resnet18", input_shape=(3, 64, 64), n_clusters=2)
        result = runner.run([impossible, TINY])
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["outcomes"][0]["index"] == 1
        assert payload["failures"][0]["index"] == 0
        stats = payload["cache_stats"]
        assert stats is not None
        assert stats["misses"]["simulation"] == 1

    def test_cache_stats_none_without_cache(self):
        result = SweepRunner(max_workers=1, cache=None).run([TINY])
        assert result.cache_stats is None
        assert result.as_dict()["cache_stats"] is None

    def test_parallel_run_without_cache_stays_uncached(self):
        """cache=None must disable worker caches too, not just the parent's."""
        result = SweepRunner(max_workers=2, cache=None).run(
            [TINY, TINY.replace(batch_size=4)]
        )
        assert len(result) == 2
        assert result.cache_stats is None
        assert result.as_dict()["cache_stats"] is None


class TestPaperDefaultDerivation:
    def test_label_and_arch_share_one_cluster_source(self):
        paper_clusters = ArchConfig.paper().n_clusters
        scenario = Scenario()
        assert scenario.resolved_n_clusters == paper_clusters
        assert f"/c{paper_clusters}/" in scenario.label
        assert scenario.build_arch().n_clusters == paper_clusters

    def test_explicit_clusters_still_win(self):
        scenario = Scenario(n_clusters=64)
        assert scenario.resolved_n_clusters == 64
        assert "/c64/" in scenario.label
        assert scenario.build_arch().n_clusters == 64


class TestCLIPersistence:
    SPEC = {
        "name": "persist",
        "base": {
            "model": "tiny_cnn",
            "input_shape": [3, 32, 32],
            "num_classes": 10,
            "n_clusters": 16,
            "level": "final",
        },
        "axes": {"batch_size": [2, 4]},
    }

    def _run(self, tmp_path, tag, extra=()):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(self.SPEC))
        out = tmp_path / f"{tag}.json"
        args = [str(spec), "--json", str(out), *extra]
        assert cli_main(args) == 0
        return json.loads(out.read_text())

    def test_warm_invocation_reports_full_cache_hits(self, tmp_path, capsys):
        cache_dir = tmp_path / "cli-store"
        cold = self._run(tmp_path, "cold", ["--cache-dir", str(cache_dir)])
        assert cold["cache_stats"]["misses"]["simulation"] == 2
        warm = self._run(tmp_path, "warm", ["--cache-dir", str(cache_dir)])
        printed = capsys.readouterr().out
        assert f"artifact store: {cache_dir}" in printed
        # the graph region is memory-only by design (graphs rebuild in
        # microseconds); every expensive region must be disk-served.
        for region in ("optimizer", "mapping", "workload", "simulation"):
            assert warm["cache_stats"]["misses"].get(region, 0) == 0, region
        assert warm["cache_stats"]["disk_hits"]["simulation"] == 2
        for a, b in zip(cold["outcomes"], warm["outcomes"]):
            assert a["metrics"] == b["metrics"]

    def test_no_store_keeps_cache_in_memory_only(self, tmp_path):
        cache_dir = tmp_path / "unused-store"
        first = self._run(
            tmp_path, "a", ["--cache-dir", str(cache_dir), "--no-store"]
        )
        second = self._run(
            tmp_path, "b", ["--cache-dir", str(cache_dir), "--no-store"]
        )
        assert not cache_dir.exists()
        assert second["cache_stats"]["misses"]["simulation"] == 2
        for a, b in zip(first["outcomes"], second["outcomes"]):
            assert a["metrics"] == b["metrics"]

    def test_default_store_honours_repro_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-store"))
        self._run(tmp_path, "env")
        assert (tmp_path / "env-store").exists()

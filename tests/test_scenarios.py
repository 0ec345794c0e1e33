"""Tests for the scenario specs, content fingerprints and artifact cache."""

import dataclasses
import json

import pytest

from repro.arch import ArchConfig
from repro.core import OptimizationLevel
from repro.scenarios import (
    ArtifactCache,
    Scenario,
    ScenarioGrid,
    SpecError,
    canonicalize,
    fingerprint,
    load_spec,
    parse_spec,
)

#: a fast scenario used throughout (16-cluster system, 32x32 inputs).
TINY = Scenario(
    model="tiny_cnn",
    input_shape=(3, 32, 32),
    num_classes=10,
    n_clusters=16,
    batch_size=4,
    level="final",
)


class TestScenarioSpec:
    def test_defaults_target_the_paper_system(self):
        scenario = Scenario()
        assert scenario.targets_paper_arch
        assert scenario.build_arch() == ArchConfig.paper()
        assert scenario.level_enum is OptimizationLevel.FINAL

    def test_any_arch_axis_switches_to_scaled(self):
        assert not TINY.targets_paper_arch
        arch = TINY.build_arch()
        assert arch.n_clusters == 16
        assert arch.ima.rows == 256
        assert Scenario(crossbar_size=128).build_arch().ima.rows == 128

    def test_build_graph_resolves_model_zoo(self):
        graph = TINY.build_graph()
        assert len(graph) > 0
        assert graph.input_nodes[0].layer.shape.channels == 3

    def test_unknown_model_rejected(self):
        with pytest.raises(SpecError, match="unknown model"):
            Scenario(model="transformer9000")

    def test_unknown_level_rejected(self):
        with pytest.raises(SpecError, match="unknown optimisation level"):
            Scenario(level="ultimate")

    def test_invalid_shapes_and_counts_rejected(self):
        with pytest.raises(SpecError):
            Scenario(input_shape=(3, 32))
        with pytest.raises(SpecError):
            Scenario(batch_size=0)
        with pytest.raises(SpecError):
            Scenario(n_clusters=-1)
        with pytest.raises(SpecError):
            Scenario(buffer_depth=0)
        # the event kernel is not a scenario field: every scenario runs
        # the table lane
        with pytest.raises(TypeError, match="engine"):
            Scenario(engine="python")

    def test_label_and_replace(self):
        assert TINY.label == "tiny_cnn/final/x256/c16/b4"
        named = TINY.replace(name="headline")
        assert named.label == "headline"
        assert named.replace(batch_size=8).batch_size == 8

    def test_as_dict_is_json_safe(self):
        payload = json.loads(json.dumps(TINY.as_dict()))
        assert payload["model"] == "tiny_cnn"
        assert payload["input_shape"] == [3, 32, 32]


class TestScenarioGrid:
    def test_expansion_is_cartesian_and_ordered(self):
        grid = ScenarioGrid.from_axes(
            base=TINY, crossbar_size=(128, 256), batch_size=(2, 4, 8)
        )
        scenarios = grid.expand()
        assert len(grid) == 6 and len(scenarios) == 6
        # last axis varies fastest
        assert [s.batch_size for s in scenarios[:3]] == [2, 4, 8]
        assert {s.crossbar_size for s in scenarios[:3]} == {128}

    def test_empty_axes_yield_the_base(self):
        assert ScenarioGrid(base=TINY).expand() == [TINY]

    def test_unknown_axis_rejected(self):
        with pytest.raises(SpecError, match="unknown sweep axis"):
            ScenarioGrid.from_axes(base=TINY, warp_factor=(1, 2))

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="no values"):
            ScenarioGrid.from_axes(base=TINY, batch_size=())


class TestSpecFiles:
    PAYLOAD = {
        "name": "dse",
        "base": {
            "model": "tiny_cnn",
            "input_shape": [3, 32, 32],
            "num_classes": 10,
            "level": "final",
        },
        "axes": {"crossbar_size": [128, 256], "batch_size": [2, 4]},
    }

    def test_parse_spec(self):
        grid = parse_spec(self.PAYLOAD)
        assert grid.name == "dse"
        assert len(grid) == 4
        assert grid.base.model == "tiny_cnn"

    def test_load_json(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(self.PAYLOAD))
        assert len(load_spec(path)) == 4

    def test_load_toml(self, tmp_path):
        path = tmp_path / "sweep.toml"
        path.write_text(
            "\n".join(
                [
                    'name = "dse"',
                    "[base]",
                    'model = "tiny_cnn"',
                    "input_shape = [3, 32, 32]",
                    "num_classes = 10",
                    "[axes]",
                    "crossbar_size = [128, 256]",
                    "batch_size = [2, 4]",
                ]
            )
        )
        grid = load_spec(path)
        assert len(grid) == 4
        assert grid.base.input_shape == (3, 32, 32)

    def test_unknown_field_and_format_rejected(self, tmp_path):
        with pytest.raises(SpecError, match="unknown scenario field"):
            parse_spec({"base": {"modle": "tiny_cnn"}})
        with pytest.raises(SpecError, match="unknown spec section"):
            parse_spec({"base": {}, "axis": {"batch_size": [2]}})
        bad = tmp_path / "sweep.yaml"
        bad.write_text("a: 1")
        with pytest.raises(SpecError, match="unsupported spec format"):
            load_spec(bad)
        with pytest.raises(SpecError, match="does not exist"):
            load_spec(tmp_path / "missing.toml")


class TestFingerprints:
    """Cache-key stability: the correctness contract of the artifact cache."""

    def test_same_spec_same_fingerprint(self):
        a = Scenario(model="tiny_cnn", input_shape=(3, 32, 32), batch_size=4)
        b = Scenario(model="tiny_cnn", input_shape=(3, 32, 32), batch_size=4)
        assert a is not b
        assert fingerprint(a) == fingerprint(b)

    def test_any_field_change_changes_the_fingerprint(self):
        base = TINY
        changed = {
            "model": "mlp",
            "input_shape": (3, 32, 31),
            "num_classes": 12,
            "batch_size": 5,
            "level": "naive",
            "mapping": "replicated",
            "n_clusters": 17,
            "crossbar_size": 128,
            "cores_per_cluster": 8,
            "reserve_clusters": 5,
            "max_replication": 32,
            "model_contention": False,
            "buffer_depth": 3,
            "fast_forward": True,
            "arrivals": {"process": "deterministic", "interval_cycles": 100},
            "execution": "typical",
            "name": "renamed",
        }
        # every Scenario field is covered by this test
        assert set(changed) == {f.name for f in dataclasses.fields(Scenario)}
        reference = fingerprint(base)
        for field_name, new_value in changed.items():
            mutated = base.replace(**{field_name: new_value})
            assert fingerprint(mutated) != reference, field_name

    def test_equal_graphs_and_archs_fingerprint_equal(self):
        assert fingerprint(TINY.build_graph()) == fingerprint(TINY.build_graph())
        assert fingerprint(ArchConfig.scaled(16)) == fingerprint(ArchConfig.scaled(16))
        assert fingerprint(ArchConfig.scaled(16)) != fingerprint(ArchConfig.scaled(32))

    def test_arch_key_ignores_cosmetic_name(self):
        from repro.scenarios.fingerprint import arch_key

        # paper() and scaled(512, 256, 16) describe the same hardware and
        # differ only in their display name: they must share cache keys.
        assert arch_key(ArchConfig.paper()) == arch_key(ArchConfig.scaled(512))
        assert arch_key(ArchConfig.scaled(16, name="a")) == arch_key(
            ArchConfig.scaled(16, name="b")
        )
        assert arch_key(ArchConfig.scaled(16)) != arch_key(ArchConfig.scaled(32))

    def test_content_digest_memoizes_and_tracks_graph_edits(self):
        from repro.dnn.layers import ReLU
        from repro.scenarios.fingerprint import content_digest

        graph = TINY.build_graph()
        first = content_digest(graph)
        assert content_digest(graph) == first == fingerprint(graph)
        # structural edits invalidate the memo
        graph.add(ReLU(name="extra"), inputs=[graph.output_nodes[0].node_id])
        assert content_digest(graph) != first
        assert content_digest(graph) == fingerprint(graph)

    def test_graph_structure_changes_fingerprint(self):
        deeper = TINY.replace(input_shape=(3, 64, 64))
        assert fingerprint(TINY.build_graph()) != fingerprint(deeper.build_graph())

    def test_fingerprint_is_stable_across_shape_inference(self):
        graph = TINY.build_graph()
        before = fingerprint(graph)
        graph.infer_shapes()
        assert fingerprint(graph) == before

    def test_canonicalize_distinguishes_containers_and_keys(self):
        # regression: tuples and lists used to render identically, so
        # (1, 2) and [1, 2] collided — violating the injectivity contract
        # the cache's correctness (and every persisted key) rests on.
        assert canonicalize((1, 2)) != canonicalize([1, 2])
        assert fingerprint((1, 2)) != fingerprint([1, 2])
        assert fingerprint(((1,), 2)) != fingerprint(([1], 2))
        assert fingerprint({"k": (1, 2)}) != fingerprint({"k": [1, 2]})
        assert fingerprint({(1, 2), 3}) != fingerprint({(1,), (2, 3)})
        assert fingerprint(()) != fingerprint([])
        assert fingerprint({1: "a"}) != fingerprint({"1": "a"})
        assert fingerprint({"x": 1, "y": 2}) == fingerprint({"y": 2, "x": 1})
        assert fingerprint(1.0) != fingerprint(1)

    def test_tuple_and_list_contents_still_compare_equal(self):
        # same element sequence, same container kind: order-sensitive match
        assert fingerprint([1, 2]) == fingerprint([1, 2])
        assert fingerprint((1, 2)) == fingerprint((1, 2))
        assert fingerprint((1, 2)) != fingerprint((2, 1))

    def test_arch_key_memoizes_on_the_original_object(self):
        """arch_key must not re-canonicalise the config on every call.

        It used to build a name-stripped copy with dataclasses.replace on
        each invocation, defeating memoization: every stage key paid a full
        ArchConfig canonicalisation.  The digest is now memoized on the
        (frozen) original.
        """
        import importlib

        # the package re-exports the fingerprint *function*, shadowing the
        # submodule attribute; resolve the module itself for patching.
        fp_module = importlib.import_module("repro.scenarios.fingerprint")

        arch = ArchConfig.scaled(16)
        calls = []
        real_fingerprint = fp_module.fingerprint
        try:
            def counting(obj):
                calls.append(1)
                return real_fingerprint(obj)

            fp_module.fingerprint = counting
            first = fp_module.arch_key(arch)
            second = fp_module.arch_key(arch)
        finally:
            fp_module.fingerprint = real_fingerprint
        assert first == second == fp_module.arch_key(ArchConfig.scaled(16))
        assert len(calls) == 1  # the second call was served from the memo

    def test_unsupported_objects_rejected(self):
        with pytest.raises(TypeError, match="cannot fingerprint"):
            fingerprint(object())


class TestArtifactCache:
    def test_get_or_create_builds_once(self):
        cache = ArtifactCache()
        calls = []
        for _ in range(3):
            value = cache.get_or_create("mapping", "k1", lambda: calls.append(1) or "v")
        assert value == "v"
        assert calls == [1]
        assert cache.stats.hit_count("mapping") == 2
        assert cache.stats.miss_count("mapping") == 1

    def test_regions_are_independent(self):
        cache = ArtifactCache()
        cache.get_or_create("a", "k", lambda: 1)
        cache.get_or_create("b", "k", lambda: 2)
        assert cache.lookup("a", "k") == 1
        assert cache.lookup("b", "k") == 2
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = ArtifactCache(max_entries_per_region=2)
        cache.get_or_create("r", "k1", lambda: 1)
        cache.get_or_create("r", "k2", lambda: 2)
        cache.get_or_create("r", "k1", lambda: 1)  # refresh k1
        cache.get_or_create("r", "k3", lambda: 3)  # evicts k2
        assert cache.lookup("r", "k1") == 1
        assert cache.lookup("r", "k2") is None
        assert cache.lookup("r", "k3") == 3

    def test_clear_keeps_stats(self):
        cache = ArtifactCache()
        cache.get_or_create("r", "k", lambda: 1)
        cache.clear()
        assert cache.lookup("r", "k") is None
        assert cache.stats.miss_count() == 1

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_entries_per_region=0)

    def test_stats_snapshot_is_independent(self):
        cache = ArtifactCache()
        cache.get_or_create("r", "k", lambda: 1)
        snap = cache.stats.snapshot()
        cache.get_or_create("r", "k", lambda: 1)
        assert snap.hit_count("r") == 0
        assert cache.stats.hit_count("r") == 1

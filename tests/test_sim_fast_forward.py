"""Equivalence tests for the exact fast-forward (repro.sim.steady_state).

The acceptance contract of the fast-forward is *bit-identical results*: for
every workload, ``simulate(fast_forward=True)`` must return exactly what the
full event-driven run returns — makespan, traffic counters, steady-state
cycles/job, per-cluster activity, per-link busy cycles and the full
per-stage completion traces — whether the fast-forward engaged (the state
recurred and the run jumped ahead) or was refused (every window simulated).
Engagement itself is asserted for the workloads whose state is known to
recur, so the equivalence assertions cannot silently pass through refusal
alone.
"""

import dataclasses
import logging
import pickle
import random

import pytest

from repro.arch import ArchConfig
from repro.scenarios import (
    ArtifactCache,
    Scenario,
    graph_stage,
    mapping_stage,
    run_scenario,
    workload_stage,
)
from repro.sim import (
    DataFlow,
    StageCost,
    StageDescriptor,
    Workload,
    result_mismatches,
    simulate,
)
from repro.sim.steady_state import (
    REFUSAL_NON_PERIODIC,
    REFUSAL_OPEN_WORKLOAD,
    FastForwardRefusal,
    fast_forward_simulate,
)
from repro.sim.system import SIMULATION_ENGINES, SimulationResult


# --------------------------------------------------------------------------- #
# Workload builders
# --------------------------------------------------------------------------- #
def _chain(
    n_stages=4,
    n_jobs=96,
    analog=400,
    bytes_per_job=2048,
    replication=1,
    storage=False,
    storage_cluster=60,
):
    """A synthetic pipeline: equal-cost analog stages, optional residual."""
    stages = []
    for i in range(n_stages):
        inputs = (
            (DataFlow("hbm", bytes_per_job, label="in"),)
            if i == 0
            else (DataFlow("stage", bytes_per_job, stage_id=i - 1),)
        )
        outputs = (
            (DataFlow("hbm", bytes_per_job, label="out"),)
            if i == n_stages - 1
            else (DataFlow("stage", bytes_per_job, stage_id=i + 1),)
        )
        if storage and i == 0:
            outputs = outputs + (
                DataFlow("storage", bytes_per_job, storage_cluster=storage_cluster,
                         label="res", buffer_depth=4),
            )
        if storage and i == n_stages - 1:
            inputs = inputs + (
                DataFlow("storage", bytes_per_job, storage_cluster=storage_cluster,
                         label="res", buffer_depth=4),
            )
        replicas = tuple((i * replication + r,) for r in range(replication))
        stages.append(
            StageDescriptor(
                stage_id=i,
                name=f"s{i}",
                analog_replicas=replicas,
                cost=StageCost(analog_cycles_per_job=analog, analog_macs_per_job=100),
                inputs=inputs,
                outputs=outputs,
            )
        )
    return Workload(
        "chain",
        stages,
        n_jobs=n_jobs,
        batch_size=max(1, n_jobs // 4),
        tiles_per_image=4,
        total_macs=100 * n_jobs * n_stages,
    )


def _zoo_workload(
    model, input_shape, level, batch_size, n_clusters, num_classes=None, crossbar=256
):
    scenario = Scenario(
        model=model,
        input_shape=input_shape,
        num_classes=num_classes,
        batch_size=batch_size,
        level=level,
        n_clusters=n_clusters,
        crossbar_size=crossbar,
    )
    graph = graph_stage(scenario)
    arch = scenario.build_arch()
    mapping = mapping_stage(graph, arch, scenario.batch_size, scenario.level_enum)
    return arch, workload_stage(mapping)


# --------------------------------------------------------------------------- #
# Bit-identity assertion
# --------------------------------------------------------------------------- #
def assert_identical(full: SimulationResult, ff: SimulationResult) -> None:
    """Every observable of the two results must match bit for bit."""
    assert full.makespan_cycles == ff.makespan_cycles
    assert full.jobs_completed == ff.jobs_completed
    assert full.final_stage_completions == ff.final_stage_completions
    assert full.steady_state_cycles_per_job() == ff.steady_state_cycles_per_job()
    a, b = full.tracer, ff.tracer
    assert (a.hbm_bytes, a.noc_bytes, a.noc_byte_hops, a.local_bytes, a.n_transfers) == (
        b.hbm_bytes, b.noc_bytes, b.noc_byte_hops, b.local_bytes, b.n_transfers
    )
    assert a.makespan == b.makespan
    assert sorted(a.clusters) == sorted(b.clusters)
    for cid in a.clusters:
        x, y = a.clusters[cid], b.clusters[cid]
        assert (x.analog, x.digital, x.communication, x.synchronization,
                x.jobs, x.last_busy_cycle) == (
            y.analog, y.digital, y.communication, y.synchronization,
            y.jobs, y.last_busy_cycle
        ), f"cluster {cid}"
    for sid in a.stages:
        x, y = a.stages[sid], b.stages[sid]
        assert (x.jobs_completed, x.analog_busy, x.digital_busy, x.input_stall,
                x.output_stall, x.first_job_start, x.last_job_end) == (
            y.jobs_completed, y.analog_busy, y.digital_busy, y.input_stall,
            y.output_stall, y.first_job_start, y.last_job_end
        ), f"stage {sid}"
    assert dict(a.link_busy) == dict(b.link_busy)
    assert {k: tuple(v) for k, v in a.stage_completions.items()} == {
        k: tuple(v) for k, v in b.stage_completions.items()
    }
    # the record layer: identical except the two provenance fields — the
    # engagement flag, and the typed refusal reason the fast-forward arm
    # carries when it fell back to the full run
    full_record = dataclasses.asdict(full.record())
    ff_record = dataclasses.asdict(ff.record())
    assert full_record.pop("fast_forwarded") is False
    ff_record.pop("fast_forwarded")
    assert full_record.pop("fast_forward_refusal") is None
    ff_record.pop("fast_forward_refusal")
    assert full_record == ff_record


# --------------------------------------------------------------------------- #
# Synthetic pipelines: engagement across windows and refusals
# --------------------------------------------------------------------------- #
ARCH64 = ArchConfig.scaled(64)

SYNTHETIC = [
    # (name, workload, must_engage)
    ("plain", _chain(), True),
    ("odd-job-count", _chain(n_jobs=97), True),
    ("replicated-w2", _chain(n_jobs=96, replication=2), True),
    ("replicated-w3", _chain(n_jobs=90, replication=3), True),
    ("residual-storage", _chain(n_jobs=96, storage=True), True),
    ("replicated-w5", _chain(n_jobs=120, replication=5), True),
    # too short for a recurrence to leave a window to skip
    ("short-run", _chain(n_jobs=47), False),
]


class TestSyntheticPipelines:
    @pytest.mark.parametrize(
        "name,workload,must_engage",
        SYNTHETIC,
        ids=[case[0] for case in SYNTHETIC],
    )
    def test_fast_forward_is_bit_identical(self, name, workload, must_engage):
        full = simulate(ARCH64, workload)
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert not full.fast_forwarded
        if must_engage:
            assert ff.fast_forwarded, f"{name}: fast-forward failed to engage"
        assert_identical(full, ff)

    @pytest.mark.parametrize("replication", [2, 3, 5])
    def test_contention_free_replicas_engage(self, replication):
        workload = _chain(n_jobs=120, replication=replication)
        ff = simulate(ARCH64, workload, model_contention=False, fast_forward=True)
        assert ff.fast_forwarded, ff.fast_forward_refusal
        full = simulate(ARCH64, workload, model_contention=False, engine="python")
        assert result_mismatches(full, ff, ignore_provenance=True) == []

    def test_a_digital_only_stage_with_intra_bytes_engages(self):
        """Only analog stages send partial sums to their digital clusters:
        a digital-only stage's ``intra_stage_bytes_per_job`` moves nothing
        on either kernel, and the contention-free run of a 13-way
        replicated producer still recurs (``L = 13``)."""
        producer = StageDescriptor(
            stage_id=0,
            name="analog",
            analog_replicas=tuple((cluster,) for cluster in range(13)),
            cost=StageCost(analog_cycles_per_job=1300, analog_macs_per_job=100),
            inputs=(DataFlow("hbm", 1024, label="in"),),
            outputs=(DataFlow("stage", 512, stage_id=1),),
        )
        digital = StageDescriptor(
            stage_id=1,
            name="digital",
            digital_clusters=(13,),
            cost=StageCost(
                digital_cycles_per_job=150,
                digital_ops_per_job=10,
                intra_stage_bytes_per_job=128,
            ),
            inputs=(DataFlow("stage", 512, stage_id=0),),
            outputs=(DataFlow("hbm", 256, label="out"),),
        )
        workload = Workload("digital-intra", [producer, digital], n_jobs=256,
                            batch_size=64, tiles_per_image=4, total_macs=100 * 256)
        ff = simulate(ARCH64, workload, model_contention=False, fast_forward=True)
        assert ff.fast_forwarded, ff.fast_forward_refusal
        full = simulate(ARCH64, workload, model_contention=False, engine="python")
        assert result_mismatches(full, ff, ignore_provenance=True) == []

    def test_fast_forward_false_never_probes(self):
        result = simulate(ARCH64, _chain())
        assert not result.fast_forwarded
        assert result.fast_forward_refusal is None

    def test_direct_api_returns_the_full_run_with_a_typed_refusal(self):
        workload = _chain(n_jobs=8)
        result = fast_forward_simulate(ARCH64, workload)
        assert isinstance(result, SimulationResult)
        assert not result.fast_forwarded
        assert result.fast_forward_refusal.reason == REFUSAL_NON_PERIODIC
        assert result_mismatches(simulate(ARCH64, workload), result, ignore_provenance=True) == []

    def test_traces_cover_every_job_of_every_stage(self):
        workload = _chain(n_jobs=96)
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert ff.fast_forwarded
        traces = ff.stage_completions
        assert set(traces) == {stage.stage_id for stage in workload.stages}
        for trace in traces.values():
            assert len(trace) == workload.n_jobs
            assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_steady_state_metric_matches_trace_tail(self):
        workload = _chain(n_jobs=96)
        ff = simulate(ARCH64, workload, fast_forward=True)
        final_trace = ff.completion_trace(workload.final_stage().stage_id)
        assert ff.final_stage_completions == final_trace[-2:]
        assert ff.steady_state_cycles_per_job() == float(
            final_trace[-1] - final_trace[-2]
        )


# --------------------------------------------------------------------------- #
# Model zoo: real lowered mappings
# --------------------------------------------------------------------------- #
ZOO = [
    # (name, model, input_shape, level, batch, clusters, classes, crossbar,
    #  must_engage)
    # bottleneck-paced naive mappings recur from the first jobs
    ("resnet18-naive", "resnet18", (3, 64, 64), "naive", 64, 256, None, 256, True),
    ("linear-cnn-naive", "linear_cnn", (3, 32, 32), "naive", 64, 32, 10, 128, True),
    # its state does not recur before the end of the run
    ("tiny-final-fallback", "tiny_cnn", (3, 32, 32), "final", 64, 16, 10, 128, False),
]


class TestModelZoo:
    @pytest.mark.parametrize(
        "name,model,shape,level,batch,clusters,classes,crossbar,must_engage",
        ZOO,
        ids=[case[0] for case in ZOO],
    )
    def test_fast_forward_matches_full_run(
        self, name, model, shape, level, batch, clusters, classes, crossbar, must_engage
    ):
        arch, workload = _zoo_workload(
            model, shape, level, batch, clusters, classes, crossbar
        )
        full = simulate(arch, workload)
        ff = simulate(arch, workload, fast_forward=True)
        if must_engage:
            assert ff.fast_forwarded, f"{name}: fast-forward failed to engage"
        assert_identical(full, ff)


# --------------------------------------------------------------------------- #
# The paper's ResNet-18 (3x256x256, 512 clusters) at batch 64: 256 jobs
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def final_macro():
    """The FINAL-mapping ResNet-18 macro (batch 64 -> 256 jobs, 512 clusters)."""
    return _zoo_workload("resnet18", (3, 256, 256), "final", 64, 512)


@pytest.fixture(scope="module")
def naive_macro():
    """The NAIVE-mapping ResNet-18 macro (batch 64 -> 256 jobs, 512 clusters)."""
    return _zoo_workload("resnet18", (3, 256, 256), "naive", 64, 512)


class TestPaperScale:
    """The paper's network at batch 64.  NAIVE recurs after a few jobs and
    jumps; FINAL's round-robin period ``L = lcm(33, 9, 3) = 99`` leaves two
    checkpoints in 256 jobs, too few to jump, so it is simulated in full
    with a typed refusal."""

    def test_naive_engages_and_matches_the_object_kernel(self, naive_macro):
        arch, workload = naive_macro
        ff = simulate(arch, workload, fast_forward=True)
        assert ff.fast_forwarded, ff.fast_forward_refusal
        full = simulate(arch, workload, engine="python")
        assert result_mismatches(full, ff, ignore_provenance=True) == []

    @pytest.mark.parametrize("model_contention", [True, False], ids=["cont", "nocont"])
    def test_final_is_bit_identical_with_a_typed_refusal(self, final_macro, model_contention):
        arch, workload = final_macro
        ff = simulate(arch, workload, model_contention, fast_forward=True)
        assert not ff.fast_forwarded
        assert ff.fast_forward_refusal.reason == REFUSAL_NON_PERIODIC
        full = simulate(arch, workload, model_contention)
        assert result_mismatches(full, ff, ignore_provenance=True) == []

    def test_engaged_result_survives_a_payload_pickle(self, naive_macro):
        arch, workload = naive_macro
        ff = simulate(arch, workload, fast_forward=True)
        assert ff.fast_forwarded
        payload = pickle.loads(pickle.dumps(ff.to_payload()))
        restored = SimulationResult.from_payload(payload, arch, workload)
        full = simulate(arch, workload)
        assert result_mismatches(ff, restored) == []
        assert result_mismatches(full, restored, ignore_provenance=True) == []

    def test_engaged_result_is_served_from_a_warm_store(
        self, tmp_path, monkeypatch
    ):
        from repro.scenarios import ArtifactStore
        from repro.scenarios import pipeline as pipeline_module

        calls = []
        real = pipeline_module.simulate

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "simulate", counting)
        scenario = Scenario(
            model="resnet18",
            input_shape=(3, 256, 256),
            batch_size=64,
            level="naive",
            n_clusters=512,
            crossbar_size=256,
            fast_forward=True,
        )
        store = ArtifactStore(tmp_path / "store")
        cold = run_scenario(scenario, ArtifactCache(store=store))
        assert cold.simulation.fast_forwarded
        assert len(calls) == 1
        warm_cache = ArtifactCache(store=store)  # a new process
        warm = run_scenario(scenario, warm_cache)
        assert len(calls) == 1  # zero simulate() calls on the warm pass
        assert warm_cache.stats.disk_hit_count("simulation") == 1
        assert warm.simulation == cold.simulation
        assert warm.metrics == cold.metrics


# --------------------------------------------------------------------------- #
# Refusals, the engine guard and the jump log
# --------------------------------------------------------------------------- #
class TestRefusalTaxonomy:
    def test_a_short_run_names_the_late_recurrence(self):
        ff = simulate(ARCH64, _chain(n_jobs=12), fast_forward=True)
        assert not ff.fast_forwarded
        refusal = ff.fast_forward_refusal
        assert refusal.reason == REFUSAL_NON_PERIODIC
        assert "< 1 windows" in refusal.detail

    def test_a_non_recurring_run_counts_its_checkpoints(self):
        # contention off, the plain chain's first stage drifts against the
        # final one, so its state never comes back
        workload = _chain(n_jobs=96)
        ff = simulate(ARCH64, workload, model_contention=False, fast_forward=True)
        assert not ff.fast_forwarded
        refusal = ff.fast_forward_refusal
        assert refusal.reason == REFUSAL_NON_PERIODIC
        assert "no state recurrence in 96 checkpoints" in refusal.detail
        full = simulate(ARCH64, workload, model_contention=False)
        assert_identical(full, ff)

    def test_open_workload_refuses_with_typed_reason(self):
        workload = _chain(n_jobs=96)
        arrivals = tuple(range(0, workload.n_jobs * 10, 10))
        open_workload = dataclasses.replace(workload, arrival_cycles=arrivals)
        result = fast_forward_simulate(ARCH64, open_workload)
        assert not result.fast_forwarded
        assert result.fast_forward_refusal.reason == REFUSAL_OPEN_WORKLOAD
        assert result_mismatches(
            simulate(ARCH64, open_workload), result, ignore_provenance=True
        ) == []

    def test_the_object_kernel_cannot_fast_forward(self, monkeypatch):
        """The fast-forward reads the table lane's state: asking for it on
        the object kernel fails before any simulator is built."""
        from repro.sim import SystemSimulator

        built = []
        monkeypatch.setattr(SystemSimulator, "__init__", lambda *a, **k: built.append(1))
        with pytest.raises(ValueError, match="table lane"):
            simulate(ARCH64, _chain(), fast_forward=True, engine="python")
        assert built == []

    def test_wide_replicas_under_contention_engage(self):
        # 13 replicas, each on its own cluster: the round-robin period is 13
        workload = _chain(n_jobs=96, replication=13)
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert ff.fast_forwarded, ff.fast_forward_refusal
        full = simulate(ARCH64, workload, engine="python")
        assert result_mismatches(full, ff, ignore_provenance=True) == []

    def test_replicas_sharing_clusters_engage(self):
        # 13 replicas sharing one cluster: no counter tells the round-robin
        # residues apart, and the state still recurs
        workload = _chain(n_jobs=96, replication=13)
        stages = [
            dataclasses.replace(d, analog_replicas=((d.stage_id,),) * 13)
            for d in workload.stages
        ]
        workload = dataclasses.replace(workload, stages=tuple(stages))
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert ff.fast_forwarded, ff.fast_forward_refusal
        for engine in SIMULATION_ENGINES:
            full = simulate(ARCH64, workload, engine=engine)
            assert_identical(full, ff)

    def test_a_jump_is_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.sim.steady_state"):
            result = fast_forward_simulate(ARCH64, _chain(n_jobs=120, replication=5))
        assert result.fast_forwarded
        assert any("jumping" in message for message in caplog.messages)

    def test_refusal_payload_round_trip(self):
        refusal = FastForwardRefusal(REFUSAL_NON_PERIODIC, "detail")
        restored = FastForwardRefusal.from_payload(refusal.to_payload())
        assert restored == refusal
        with pytest.raises(ValueError):
            FastForwardRefusal("not-a-reason", "")
        with pytest.raises(ValueError):
            FastForwardRefusal("window-too-large", "")


# --------------------------------------------------------------------------- #
# Replica-permutation invariance
# --------------------------------------------------------------------------- #
def _permute_replicas(workload: Workload, seed: int) -> Workload:
    """Shuffle the replica order of every stage with a seeded RNG."""
    rng = random.Random(seed)
    stages = []
    for stage in workload.stages:
        replicas = list(stage.analog_replicas)
        rng.shuffle(replicas)
        stages.append(
            dataclasses.replace(stage, analog_replicas=tuple(replicas))
        )
    return dataclasses.replace(workload, stages=tuple(stages))


class TestReplicaPermutationInvariance:
    """Permuting replica ids must not break cross-engine bit-identity.

    Every engine must handle an arbitrary replica order identically, and
    the fast-forward must stay exact on it: a seeded shuffle of each
    stage's replica tuple must leave ``result_mismatches`` empty.
    """

    @pytest.mark.parametrize("seed", [0, 7, 2023])
    def test_engines_agree_on_permuted_replicas(self, seed):
        workload = _permute_replicas(_chain(n_jobs=96, replication=3), seed)
        results = {
            engine: simulate(ARCH64, workload, engine=engine)
            for engine in SIMULATION_ENGINES
        }
        reference = results[SIMULATION_ENGINES[0]]
        for engine in SIMULATION_ENGINES[1:]:
            assert not result_mismatches(reference, results[engine]), engine

    @pytest.mark.parametrize("seed", [0, 7])
    def test_fast_forward_stays_exact_on_permuted_replicas(self, seed):
        workload = _permute_replicas(_chain(n_jobs=96, replication=3), seed)
        full = simulate(ARCH64, workload)
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert ff.fast_forwarded
        assert not result_mismatches(full, ff, ignore_provenance=True)


# --------------------------------------------------------------------------- #
# Serialisation and scenario threading
# --------------------------------------------------------------------------- #
class TestIntegration:
    def test_payload_round_trip_keeps_provenance_and_traces(self):
        workload = _chain(n_jobs=96)
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert ff.fast_forwarded
        restored = SimulationResult.from_payload(ff.to_payload(), ARCH64, workload)
        assert restored.fast_forwarded
        assert restored.record() == ff.record()
        assert restored.stage_completions == ff.stage_completions

    def test_scenario_fast_forward_threads_to_record(self):
        scenario = Scenario(
            model="linear_cnn",
            input_shape=(3, 32, 32),
            num_classes=10,
            batch_size=64,
            level="naive",
            n_clusters=32,
            crossbar_size=128,
            fast_forward=True,
        )
        outcome = run_scenario(scenario, ArtifactCache())
        assert outcome.simulation.fast_forwarded
        baseline = run_scenario(scenario.replace(fast_forward=False), ArtifactCache())
        assert not baseline.simulation.fast_forwarded
        ff_dict = dataclasses.asdict(outcome.simulation)
        base_dict = dataclasses.asdict(baseline.simulation)
        ff_dict.pop("fast_forwarded")
        base_dict.pop("fast_forwarded")
        assert ff_dict == base_dict
        assert outcome.metrics == baseline.metrics

    def test_fast_forward_keys_separately_in_the_cache(self):
        from repro.scenarios.fingerprint import simulation_key

        base = simulation_key("a", "w", True, 2)
        assert simulation_key("a", "w", True, 2, fast_forward=True) != base
        assert simulation_key("a", "w", True, 2, fast_forward=False) == base

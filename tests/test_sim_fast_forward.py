"""Equivalence tests for the steady-state fast-forward (repro.sim.steady_state).

The acceptance contract of the fast-forward is *bit-identical results*: for
every workload, ``simulate(fast_forward=True)`` must return exactly what the
full event-driven run returns — makespan, traffic counters, steady-state
cycles/job, per-cluster activity, per-link busy cycles and the full
per-stage completion traces — whether the fast-forward engaged (periodic
pipeline, extrapolated) or fell back (non-periodic, full run).  Engagement
itself is asserted for the workloads whose periodicity is known, so the
equivalence assertions cannot silently pass through fallback alone.
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
    MIN_JOBS,
    REFUSAL_NON_PERIODIC,
    REFUSAL_OPEN_WORKLOAD,
    REFUSAL_PROBE_TOO_SHORT,
    REFUSAL_WINDOW_TOO_LARGE,
    FastForwardRefusal,
    _run_replica_probe,
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
# Synthetic pipelines: engagement across windows, alignment and fallbacks
# --------------------------------------------------------------------------- #
ARCH64 = ArchConfig.scaled(64)

SYNTHETIC = [
    # (name, workload, must_engage)
    ("plain", _chain(), True),
    ("odd-job-count", _chain(n_jobs=97), True),
    ("replicated-w2", _chain(n_jobs=96, replication=2), True),
    ("replicated-w3", _chain(n_jobs=90, replication=3), True),
    ("residual-storage", _chain(n_jobs=96, storage=True), True),
    # window 5 does not divide any aligned probe gap: exercises the
    # re-probe-at-aligned-size path
    ("replicated-w5-realign", _chain(n_jobs=120, replication=5), True),
    # too small to amortise a probe: must fall back untouched
    ("below-min-jobs", _chain(n_jobs=MIN_JOBS - 1), False),
]


def _assert_probe_records_every_tracer_event(arch, workload, b, buffer_depth):
    """Run the replica probe on ``b`` jobs and check its recording against
    the finalized tracer (see ``test_replica_probe_records_every_tracer_event``)."""
    probe, result = _run_replica_probe(arch, workload.with_n_jobs(b), buffer_depth)
    assert result.completed
    totals = {}
    horizons = {}
    for (cid, category, cycles), stream in probe.substreams.items():
        totals[cid, category] = totals.get((cid, category), 0) + cycles * len(stream)
        horizons[cid] = max(horizons.get(cid, 0), max(stream))
    clusters = result.tracer.clusters
    for cid, act in clusters.items():
        for category in ("analog", "digital", "communication"):
            recorded = totals.get((cid, category), 0)
            assert recorded == getattr(act, category), (
                f"cluster {cid}: {category} recorded {recorded} cycles, "
                f"tracer has {getattr(act, category)}"
            )
        assert horizons.get(cid) == act.last_busy_cycle, f"cluster {cid}: horizon"
    assert set(horizons) == set(clusters)
    assert set(probe.stage_ends) == {d.stage_id for d in workload.stages}, (
        "stage compute ends not recorded"
    )
    for sid, ends in probe.stage_ends.items():
        assert len(ends) == b, f"stage {sid}: {len(ends)} compute ends"


class TestSyntheticPipelines:
    @pytest.mark.parametrize(
        "name,workload,must_engage",
        SYNTHETIC,
        ids=[case[0] for case in SYNTHETIC],
    )
    def test_replica_probe_records_every_tracer_event(self, name, workload, must_engage):
        """The probe's recording on replicated, storage-relay and odd-count
        shapes, at buffer depths 1 and 2."""
        for buffer_depth in (1, 2):
            _assert_probe_records_every_tracer_event(
                ARCH64, workload, min(workload.n_jobs, 40), buffer_depth
            )

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

    def test_a_digital_only_stage_with_intra_bytes_engages(self):
        """Only analog stages send partial sums to their digital clusters:
        a digital-only stage's ``intra_stage_bytes_per_job`` moves nothing
        on either kernel.  The event ledger reads the compiled flows, so it
        predicts no intra transfer either, and the contention-free
        replica path engages (13 replicas exceed the global window cap)."""
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

    def test_direct_api_refuses_below_min_jobs(self):
        refusal = fast_forward_simulate(ARCH64, _chain(n_jobs=8))
        assert isinstance(refusal, FastForwardRefusal)
        assert refusal.reason == REFUSAL_PROBE_TOO_SHORT

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
    # bottleneck-paced naive mappings are periodic from the first job
    ("resnet18-naive", "resnet18", (3, 64, 64), "naive", 64, 256, None, 256, True),
    ("linear-cnn-naive", "linear_cnn", (3, 32, 32), "naive", 64, 32, 10, 128, True),
    # the final mapping's replica round-robin never settles into a short
    # window: certification must refuse and fall back to the full run
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
# The paper's headline workload: FINAL ResNet-18, 256-job macro
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def final_macro():
    """The FINAL-mapping ResNet-18 macro (batch 64 -> 256 jobs, 512 clusters)."""
    return _zoo_workload("resnet18", (3, 256, 256), "final", 64, 512)


class TestFinalMapping:
    """Replica-symmetry certification on the mapping the tentpole targets.

    The FINAL mapping's 33/9/3-way stage replications exceed the global
    certification cap, so engagement here exercises the replica path:
    per-stage anchors, merged-family certification and the exact integer
    extrapolation — asserted bit-identical on every registered engine.
    """

    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    def test_engages_and_is_bit_identical(self, final_macro, engine):
        arch, workload = final_macro
        full = simulate(arch, workload, engine=engine, model_contention=False)
        ff = simulate(
            arch,
            workload,
            engine=engine,
            model_contention=False,
            fast_forward=True,
        )
        assert ff.fast_forwarded, (
            f"{engine}: refused: {ff.fast_forward_refusal}"
        )
        assert not result_mismatches(full, ff, ignore_provenance=True)

    def test_contention_refusal_is_typed(self, final_macro):
        arch, workload = final_macro
        ff = simulate(arch, workload, fast_forward=True)  # contention on
        assert not ff.fast_forwarded
        refusal = ff.fast_forward_refusal
        assert refusal is not None
        assert refusal.reason == REFUSAL_WINDOW_TOO_LARGE
        assert refusal.probes == ()  # refused before any probe ran

    def test_replica_probe_records_every_tracer_event(self, final_macro):
        """The replica probe's substreams account for the whole tracer.

        Per cluster and category, cycles x events summed over the recorded
        event families must equal the finalized tracer's total, the latest
        recorded end must equal the busy horizon, and every stage must
        record one compute end per job — so a recording override that goes
        missing fails here by name instead of surfacing later as a silent
        certification refusal.
        """
        arch, workload = final_macro
        _assert_probe_records_every_tracer_event(arch, workload, 40, 2)

    def test_engaged_result_survives_a_payload_pickle(self, final_macro):
        arch, workload = final_macro
        ff = simulate(arch, workload, model_contention=False, fast_forward=True)
        assert ff.fast_forwarded
        payload = pickle.loads(pickle.dumps(ff.to_payload()))
        restored = SimulationResult.from_payload(payload, arch, workload)
        full = simulate(arch, workload, model_contention=False)
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
            level="final",
            n_clusters=512,
            crossbar_size=256,
            model_contention=False,
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
# Refusal taxonomy and escalation records
# --------------------------------------------------------------------------- #
class TestRefusalTaxonomy:
    def test_below_min_jobs_is_recorded_on_the_result(self):
        ff = simulate(ARCH64, _chain(n_jobs=MIN_JOBS - 1), fast_forward=True)
        assert not ff.fast_forwarded
        refusal = ff.fast_forward_refusal
        assert refusal is not None
        assert refusal.reason == REFUSAL_PROBE_TOO_SHORT

    def test_open_workload_refuses_with_typed_reason(self):
        workload = _chain(n_jobs=96)
        arrivals = tuple(range(0, workload.n_jobs * 10, 10))
        open_workload = dataclasses.replace(workload, arrival_cycles=arrivals)
        refusal = fast_forward_simulate(ARCH64, open_workload)
        assert isinstance(refusal, FastForwardRefusal)
        assert refusal.reason == REFUSAL_OPEN_WORKLOAD

    def test_wide_replicas_under_contention_refuse_before_probing(self):
        # q_max = 13 exceeds MAX_WINDOW and every replica owns its cluster,
        # so no global window <= MAX_WINDOW can certify; under contention
        # the replica path is unavailable, so the refusal is typed without
        # running a probe, and the fallback full run stays bit-identical.
        workload = _chain(n_jobs=96, replication=13)
        refusal = fast_forward_simulate(ARCH64, workload, model_contention=True)
        assert isinstance(refusal, FastForwardRefusal)
        assert refusal.reason == REFUSAL_WINDOW_TOO_LARGE
        assert refusal.probes == ()
        full = simulate(ARCH64, workload)
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert ff.fast_forward_refusal == refusal
        assert_identical(full, ff)

    def test_rejected_global_windows_are_recorded(self):
        # the replicated ResNet-18 (q_max <= MAX_WINDOW) is probed under
        # contention and refused: the refusal carries the probe attempt and
        # the candidate windows it rejected, so the cliff is traceable
        arch, workload = _zoo_workload(
            "resnet18", (3, 64, 64), "replicated", 64, 256
        )
        refusal = fast_forward_simulate(arch, workload)
        assert isinstance(refusal, FastForwardRefusal)
        assert refusal.reason == REFUSAL_NON_PERIODIC
        assert any("rejected" in line for line in refusal.probes)

    def test_replicas_without_witness_clusters_still_probe(self):
        # 13 replicas sharing one cluster: no per-cluster counter tells
        # the round-robin residues apart, so the global probe still runs —
        # and certifies W=1.  The final stage's probe trace has a drain
        # deviation followed by a periodic-looking tail; the splice must
        # keep that deviation in the shifted tail, or the extrapolated
        # trace diverges from the full run.
        workload = _chain(n_jobs=96, replication=13)
        stages = [
            dataclasses.replace(d, analog_replicas=((d.stage_id,),) * 13)
            for d in workload.stages
        ]
        workload = dataclasses.replace(workload, stages=tuple(stages))
        for engine in SIMULATION_ENGINES:
            full = simulate(ARCH64, workload, engine=engine)
            ff = simulate(ARCH64, workload, fast_forward=True, engine=engine)
            assert ff.fast_forwarded, f"{engine}: {ff.fast_forward_refusal}"
            assert_identical(full, ff)

    def test_probe_escalation_is_logged(self, caplog):
        # window 5 never divides the first probe's remaining job count, so
        # certification succeeds only after the re-probe at an aligned
        # size — and that escalation must leave a log trace.
        workload = _chain(n_jobs=120, replication=5)
        with caplog.at_level(logging.INFO, logger="repro.sim.steady_state"):
            result = fast_forward_simulate(ARCH64, workload)
        assert isinstance(result, SimulationResult)
        assert any("escalation" in message for message in caplog.messages)

    def test_refusal_payload_round_trip(self):
        refusal = FastForwardRefusal(
            REFUSAL_WINDOW_TOO_LARGE, "detail", ("probe b=24",)
        )
        restored = FastForwardRefusal.from_payload(refusal.to_payload())
        assert restored == refusal
        with pytest.raises(ValueError):
            FastForwardRefusal("not-a-reason", "")


# --------------------------------------------------------------------------- #
# Replica-permutation invariance (the symmetry the replica path rests on)
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

    The replica-symmetry certification treats a stage's replicas as
    timing-interchangeable under round-robin dispatch; that assumption is
    only sound if every engine handles an arbitrary replica order
    identically.  A seeded shuffle of each stage's replica tuple must
    leave ``result_mismatches`` empty across python/table.
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

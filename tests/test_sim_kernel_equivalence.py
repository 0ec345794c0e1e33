"""Bit-identity harness: compiled table lane vs object kernel.

The table lane (``engine="table"``, the default) is a pure performance
mechanism — opcode rows, flat link busy-until vectors, fused DMA fan-out.
Its acceptance contract is *bit-identical results*: for every workload,
every contention mode and every buffer depth, ``simulate(engine="table")``
must return exactly what ``simulate(engine="python")`` returns, down to the
per-stage completion traces and per-link busy counters.  The comparison
runs through :func:`repro.sim.result_mismatches`, which enumerates every
observable of a :class:`~repro.sim.SimulationResult` and reports the first
divergence by name.

Four layers of coverage:

* the synthetic pipelines and model-zoo mappings shared with the
  fast-forward suite (known shapes: replication, residual storage, HBM
  endpoints, periodic and non-periodic pipelines), also at non-default
  buffer depths and without contention;
* the same shapes on architectures with more HBM channels or fewer DMA
  channels than the default, where the table lane's communication
  fusions (burst DMA rows, barrier-free HBM joins, last-chunk-only
  landings) switch off or split;
* a seeded randomized property sweep over small pipelines — stage counts,
  costs, byte sizes, replication widths, storage flows, buffer depths and
  contention drawn from a fixed-seed RNG, so a kernel divergence on an
  unanticipated shape shows up here first (and reproducibly);
* the fast-forward, whose probes always run shortened copies of the
  workload on the table lane, against its own full run and against the
  object kernel's.
"""

import dataclasses
import functools
import inspect
import json
import random

import pytest

from repro.scenarios.fingerprint import simulation_key
from repro.sim import (
    BurstyArrivals,
    DataFlow,
    DeterministicArrivals,
    PoissonArrivals,
    StageCost,
    StageDescriptor,
    Workload,
    assert_results_identical,
    result_mismatches,
    simulate,
)
from repro.sim.system import DEFAULT_ENGINE, SIMULATION_ENGINES

from test_sim_fast_forward import ARCH64, SYNTHETIC, ZOO, _chain, _zoo_workload


# --------------------------------------------------------------------------- #
# Known shapes: the fast-forward suite's synthetic + zoo workloads
# --------------------------------------------------------------------------- #
class TestKnownShapes:
    @pytest.mark.parametrize(
        "name,workload,_must_engage",
        SYNTHETIC,
        ids=[case[0] for case in SYNTHETIC],
    )
    @pytest.mark.parametrize("model_contention", [True, False], ids=["cont", "nocont"])
    def test_synthetic_pipelines_identical(self, name, workload, _must_engage,
                                           model_contention):
        python = simulate(ARCH64, workload, model_contention, engine="python")
        table = simulate(ARCH64, workload, model_contention, engine="table")
        assert result_mismatches(python, table) == []

    @pytest.mark.parametrize(
        "name,model,shape,level,batch,clusters,classes,crossbar,_must_engage",
        ZOO,
        ids=[case[0] for case in ZOO],
    )
    def test_zoo_mappings_identical(
        self, name, model, shape, level, batch, clusters, classes, crossbar,
        _must_engage,
    ):
        arch, workload = _zoo_workload(
            model, shape, level, batch, clusters, classes, crossbar
        )
        python = simulate(arch, workload, engine="python")
        table = simulate(arch, workload, engine="table")
        assert_results_identical(python, table)

    def test_payloads_identical_including_stage_completions(self):
        """The persisted payloads — the cache currency — match exactly.

        The tracer ships inside the payload as a live object, so it is
        compared field by field through ``result_mismatches`` (which covers
        every counter, trace and busy map) and the remaining payload
        entries by plain equality.
        """
        arch, workload = _zoo_workload("tiny_cnn", (3, 32, 32), "final", 16, 16, 10, 128)
        python = simulate(arch, workload, engine="python")
        table = simulate(arch, workload, engine="table")
        assert result_mismatches(python, table) == []
        python_payload = python.to_payload()
        table_payload = table.to_payload()
        assert type(python_payload.pop("tracer")) is type(table_payload.pop("tracer"))
        assert python_payload == table_payload


# --------------------------------------------------------------------------- #
# Known shapes off the default operating point
# --------------------------------------------------------------------------- #
class TestKnownShapesOffDefaults:
    """The known shapes at the buffer depths and contention mode that
    ``TestKnownShapes`` leaves at their defaults: depth 1 serialises every
    producer on its consumer's credit, depth 5 lets producers run ahead,
    and contention-free zoo runs take the table lane's uncontended link
    path on real mappings."""

    @pytest.mark.parametrize(
        "name,workload,_must_engage",
        SYNTHETIC,
        ids=[case[0] for case in SYNTHETIC],
    )
    @pytest.mark.parametrize("buffer_depth", [1, 5], ids=["depth1", "depth5"])
    def test_synthetic_pipelines_identical_across_buffer_depths(
        self, name, workload, _must_engage, buffer_depth
    ):
        python = simulate(ARCH64, workload, buffer_depth=buffer_depth, engine="python")
        table = simulate(ARCH64, workload, buffer_depth=buffer_depth, engine="table")
        assert result_mismatches(python, table) == []

    @pytest.mark.parametrize(
        "name,model,shape,level,batch,clusters,classes,crossbar,_must_engage",
        ZOO,
        ids=[case[0] for case in ZOO],
    )
    def test_zoo_mappings_identical_without_contention(
        self, name, model, shape, level, batch, clusters, classes, crossbar,
        _must_engage,
    ):
        arch, workload = _zoo_workload(
            model, shape, level, batch, clusters, classes, crossbar
        )
        python = simulate(arch, workload, model_contention=False, engine="python")
        table = simulate(arch, workload, model_contention=False, engine="table")
        assert_results_identical(python, table)


# --------------------------------------------------------------------------- #
# Resource counts: the communication fusions' off-switches
# --------------------------------------------------------------------------- #
def _with_channels(arch, hbm_channels: int, dma_channels: int):
    """``arch`` with ``hbm_channels`` HBM channels and ``dma_channels`` DMA
    channels per cluster."""
    return dataclasses.replace(
        arch,
        hbm=dataclasses.replace(arch.hbm, n_channels=hbm_channels),
        cluster=dataclasses.replace(arch.cluster, dma_channels=dma_channels),
    )


def _chunked(workload: Workload, n_chunks: int) -> Workload:
    """``workload`` with every data flow split into ``n_chunks`` transfers."""
    def split(flows):
        return tuple(dataclasses.replace(f, transfers_per_job=n_chunks) for f in flows)

    return dataclasses.replace(
        workload,
        stages=[
            dataclasses.replace(st, inputs=split(st.inputs), outputs=split(st.outputs))
            for st in workload.stages
        ],
    )


@functools.lru_cache(maxsize=None)
def _small_zoo(index: int):
    """The two small zoo mappings (the resnet18 one is too slow here)."""
    case = [case for case in ZOO if case[0] != "resnet18-naive"][index]
    return _zoo_workload(*case[1:8])


#: (hbm_channels, dma_channels): one HBM channel is the default and the
#: only count under which chunk landings fold; 16 DMA channels is the
#: default and 1 or 2 split most chunk groups' bursts.
RESOURCES = [(hbm, dma) for hbm in (1, 2, 3) for dma in (1, 2, 16)]


class TestResourceCountMatrix:
    """Every (HBM channels, DMA channels, contention) point runs a rotating
    slice of the known shapes: one synthetic pipeline, one small zoo
    mapping and two random pipelines cut into several chunks per flow."""

    @pytest.mark.parametrize("model_contention", [True, False], ids=["cont", "nocont"])
    @pytest.mark.parametrize(
        "hbm_channels,dma_channels", RESOURCES, ids=[f"hbm{h}-dma{d}" for h, d in RESOURCES]
    )
    def test_channel_counts_identical(self, hbm_channels, dma_channels, model_contention):
        index = RESOURCES.index((hbm_channels, dma_channels)) * 2 + model_contention
        name, synthetic, _ = SYNTHETIC[index % len(SYNTHETIC)]
        zoo_arch, zoo = _small_zoo((index // 2 + index) % 2)
        cases = [(name, ARCH64, synthetic), ("zoo", zoo_arch, zoo)]
        for seed in (2 * index, 2 * index + 1):
            rng = random.Random(3000 + seed)
            workload = _chunked(_random_workload(rng), rng.choice([2, 3, 5]))
            cases.append((f"random{seed}", ARCH64, workload))
        for label, arch, workload in cases:
            arch = _with_channels(arch, hbm_channels, dma_channels)
            python = simulate(arch, workload, model_contention, engine="python")
            table = simulate(arch, workload, model_contention, engine="table")
            mismatches = result_mismatches(python, table)
            assert mismatches == [], f"{label}: {mismatches}"


# --------------------------------------------------------------------------- #
# Seeded randomized property sweep
# --------------------------------------------------------------------------- #
def _random_workload(rng: random.Random) -> Workload:
    """A random small pipeline drawn from the space the simulator supports.

    Shapes vary across every axis the kernels treat differently: stage
    count, per-stage replication width, analog cost, transfer sizes (tiny
    transfers exercise the ``max(1, ...)`` chunking edge), residual
    storage flows with their own buffer depths, and job counts that do and
    do not divide the batch size.
    """
    n_stages = rng.randint(2, 5)
    n_jobs = rng.choice([7, 12, 24, 31, 48])
    bytes_per_job = rng.choice([1, 5, 260, 2048, 5000])
    analog = rng.choice([0, 17, 400])
    cluster = 0
    stages = []
    storage_stage = rng.randrange(n_stages - 1) if rng.random() < 0.5 else None
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
        if storage_stage == i:
            depth = rng.choice([1, 4])
            outputs = outputs + (
                DataFlow("storage", bytes_per_job, storage_cluster=63,
                         label="res", buffer_depth=depth),
            )
        if storage_stage is not None and i == n_stages - 1:
            inputs = inputs + (
                DataFlow("storage", bytes_per_job, storage_cluster=63,
                         label="res", buffer_depth=4),
            )
        replication = rng.choice([1, 1, 2, 3])
        replicas = tuple(
            tuple(cluster + r * 2 + c for c in range(rng.choice([1, 2])))
            for r in range(replication)
        )
        cluster += 2 * replication + 1
        stages.append(
            StageDescriptor(
                stage_id=i,
                name=f"s{i}",
                analog_replicas=replicas,
                cost=StageCost(
                    analog_cycles_per_job=analog,
                    digital_cycles_per_job=rng.choice([0, 90]),
                    analog_macs_per_job=100,
                ),
                inputs=inputs,
                outputs=outputs,
            )
        )
    return Workload(
        "random",
        stages,
        n_jobs=n_jobs,
        batch_size=max(1, n_jobs // rng.choice([1, 3, 4])),
        tiles_per_image=rng.choice([1, 4]),
        total_macs=100 * n_jobs * n_stages,
    )


class TestRandomizedProperty:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_pipelines_identical(self, seed):
        rng = random.Random(1000 + seed)
        workload = _random_workload(rng)
        model_contention = rng.random() < 0.7
        buffer_depth = rng.choice([1, 2, 5])
        python = simulate(
            ARCH64, workload, model_contention, buffer_depth, engine="python"
        )
        table = simulate(
            ARCH64, workload, model_contention, buffer_depth, engine="table"
        )
        mismatches = result_mismatches(python, table)
        assert mismatches == [], f"seed {seed}: {mismatches}"


# --------------------------------------------------------------------------- #
# Open-system workloads: arrival-gated launch across the full engine matrix
# --------------------------------------------------------------------------- #
def _random_arrivals(rng: random.Random, n_jobs: int):
    """A random arrival schedule drawn across process kind, rate and seed.

    Rates span well below the service rate (launch gating dominates),
    around it, and far above it (the schedule degenerates to a burst and
    the open run must still match a closed one event for event).
    """
    kind = rng.choice(["deterministic", "poisson", "bursty"])
    if kind == "deterministic":
        process = DeterministicArrivals(
            interval_cycles=rng.choice([0, 40, 700, 6000]),
            start_cycle=rng.choice([0, 0, 250]),
        )
    elif kind == "poisson":
        process = PoissonArrivals(
            mean_interarrival_cycles=rng.choice([50.0, 800.0, 5000.0]),
            seed=rng.randrange(1 << 16),
        )
    else:
        process = BurstyArrivals(
            burst_size=rng.choice([2, 5, 16]),
            burst_interval_cycles=rng.choice([0, 900, 9000]),
        )
    return process.generate(n_jobs)


class TestOpenWorkloadEquivalence:
    """Bit-identity of both kernels under arrival-gated job launch."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_open_pipelines_identical_across_engines(self, seed):
        rng = random.Random(7000 + seed)
        workload = _random_workload(rng)
        workload = workload.with_arrivals(_random_arrivals(rng, workload.n_jobs))
        assert workload.is_open
        model_contention = rng.random() < 0.7
        buffer_depth = rng.choice([1, 2, 5])
        results = {
            engine: simulate(
                ARCH64, workload, model_contention, buffer_depth, engine=engine
            )
            for engine in ("python", "table")
        }
        mismatches = result_mismatches(results["python"], results["table"])
        assert mismatches == [], f"seed {seed}: {mismatches}"
        # every job's sojourn was recorded, identically, on every engine
        latencies = results["python"].request_latencies()
        assert len(latencies) == workload.n_jobs
        assert all(lat > 0 for lat in latencies)
        assert results["table"].request_latencies() == latencies

    def test_open_zoo_mapping_identical_across_engines(self):
        """A real mapped model (not a synthetic chain) under Poisson load."""
        arch, workload = _zoo_workload(
            "tiny_cnn", (3, 32, 32), "final", 16, 16, 10, 128
        )
        workload = workload.with_arrivals(
            PoissonArrivals(mean_interarrival_cycles=30000.0, seed=11).generate(
                workload.n_jobs
            )
        )
        python = simulate(arch, workload, engine="python")
        table = simulate(arch, workload, engine="table")
        assert result_mismatches(python, table) == []


# --------------------------------------------------------------------------- #
# The fast-forward (its probe always runs the table lane) vs full runs
# --------------------------------------------------------------------------- #
class TestBoundedRunEquivalence:
    @pytest.mark.parametrize(
        "name,workload,must_engage",
        SYNTHETIC,
        ids=[case[0] for case in SYNTHETIC],
    )
    def test_fast_forward_on_table_kernel(self, name, workload, must_engage):
        """A fast-forward on the table lane is exact against its own full run."""
        full = simulate(ARCH64, workload, engine="table")
        ff = simulate(ARCH64, workload, fast_forward=True, engine="table")
        if must_engage:
            assert ff.fast_forwarded, f"{name}: fast-forward failed to engage"
        assert result_mismatches(full, ff, ignore_provenance=True) == []

    @pytest.mark.parametrize(
        "name,workload,must_engage",
        SYNTHETIC,
        ids=[case[0] for case in SYNTHETIC],
    )
    def test_table_fast_forward_matches_the_object_kernel_full_run(
        self, name, workload, must_engage
    ):
        """The probe runs on the table lane; the reference is the object
        kernel simulating every job."""
        full = simulate(ARCH64, workload, engine="python")
        ff = simulate(ARCH64, workload, fast_forward=True, engine="table")
        if must_engage:
            assert ff.fast_forwarded, f"{name}: fast-forward failed to engage"
        assert result_mismatches(full, ff, ignore_provenance=True) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_random_fast_forward_matches_the_object_kernel_full_run(self, seed):
        """Random shapes, grown past the probe minimum, fast-forwarded on
        the table lane: engaged or refused, the result is the full run's."""
        rng = random.Random(5000 + seed)
        workload = _random_workload(rng)
        workload = workload.with_n_jobs(rng.choice([64, 96, 130]))
        model_contention = rng.random() < 0.7
        buffer_depth = rng.choice([1, 2, 5])
        full = simulate(
            ARCH64, workload, model_contention, buffer_depth, engine="python"
        )
        ff = simulate(
            ARCH64, workload, model_contention, buffer_depth,
            fast_forward=True, engine="table",
        )
        assert ff.fast_forwarded or ff.fast_forward_refusal is not None
        mismatches = result_mismatches(full, ff, ignore_provenance=True)
        assert mismatches == [], f"seed {seed}: {mismatches}"

    def test_contention_free_fast_forward_matches_the_object_kernel_full_run(self):
        workload = _chain(n_jobs=96, replication=3)
        full = simulate(ARCH64, workload, model_contention=False, engine="python")
        ff = simulate(ARCH64, workload, model_contention=False, fast_forward=True)
        assert ff.fast_forwarded
        assert result_mismatches(full, ff, ignore_provenance=True) == []

    def test_fast_forwarded_payload_matches_the_object_kernel_full_run(self):
        """An extrapolated result persists to the full run's payload, save
        for the provenance flag."""
        workload = _chain(n_jobs=96, storage=True)
        full = simulate(ARCH64, workload, engine="python")
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert ff.fast_forwarded
        assert result_mismatches(full, ff, ignore_provenance=True) == []
        full_payload = full.to_payload()
        ff_payload = ff.to_payload()
        assert ff_payload.pop("fast_forwarded") and not full_payload.pop("fast_forwarded")
        assert type(full_payload.pop("tracer")) is type(ff_payload.pop("tracer"))
        assert full_payload == ff_payload

    def test_fast_forward_matches_the_object_kernel_full_run(self):
        workload = _chain(n_jobs=96, replication=2)
        full = simulate(ARCH64, workload, engine="python")
        ff = simulate(ARCH64, workload, fast_forward=True)
        assert ff.fast_forwarded
        assert result_mismatches(full, ff, ignore_provenance=True) == []

    def test_the_probe_runs_the_table_lane_and_a_fallback_the_requested_engine(
        self, monkeypatch
    ):
        """``engine`` only selects the kernel of a full run: an engaged
        fast-forward never builds the object kernel, a refused one runs it."""
        engines = _record_simulator_engines(monkeypatch)
        engaged = simulate(
            ARCH64, _chain(n_jobs=96, replication=2), fast_forward=True,
            engine="python",
        )
        assert engaged.fast_forwarded
        assert engines and set(engines) == {"table"}
        engines.clear()
        refused = simulate(ARCH64, _chain(n_jobs=8), fast_forward=True, engine="python")
        assert refused.fast_forward_refusal is not None
        assert engines[-1] == "python"


# --------------------------------------------------------------------------- #
# Cache keying of the arrivals axis
# --------------------------------------------------------------------------- #
class TestSimulationCacheKey:
    def test_arrivals_axis_keys_separately(self):
        base = simulation_key("a", "w", True, 2)
        assert simulation_key("a", "w", True, 2, arrivals=None) == base
        open_key = simulation_key("a", "w", True, 2, arrivals=(0, 10, 20))
        assert open_key != base
        assert simulation_key("a", "w", True, 2, arrivals=(0, 10, 21)) != open_key
        assert simulation_key("a", "w", True, 2, arrivals=(0, 10, 20)) == open_key


# --------------------------------------------------------------------------- #
# The default engine: one constant, and only two entry points take an engine
# --------------------------------------------------------------------------- #
class TestDefaultEngine:
    def test_default_is_the_table_lane(self):
        assert DEFAULT_ENGINE == "table"
        assert DEFAULT_ENGINE in SIMULATION_ENGINES

    def test_every_layer_defaults_to_it(self):
        from repro.sim import SystemSimulator

        for function in (simulate, SystemSimulator):
            default = inspect.signature(function).parameters["engine"].default
            assert default == DEFAULT_ENGINE, function.__name__

    def test_only_the_simulator_entry_points_take_an_engine(self):
        from repro.scenarios import Scenario, simulation_stage
        from repro.sim import fast_forward_simulate

        for function in (Scenario, simulation_stage, simulation_key, fast_forward_simulate):
            assert "engine" not in inspect.signature(function).parameters, (
                function.__name__
            )

    def test_simulation_stage_matches_the_object_kernel_full_run(self):
        """The scenario layer, which takes no engine, reproduces the golden
        reference."""
        from repro.scenarios import simulation_stage

        workload = _chain(n_jobs=24, replication=2, storage=True)
        assert result_mismatches(
            simulate(ARCH64, workload, engine="python"),
            simulation_stage(ARCH64, workload),
        ) == []

    def test_cli_runs_the_default_engine(self, tmp_path, monkeypatch):
        from repro.scenarios.cli import main as cli_main

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "default-engine",
                    "base": {
                        "model": "tiny_cnn",
                        "input_shape": [3, 32, 32],
                        "num_classes": 10,
                        "n_clusters": 16,
                        "batch_size": 2,
                    },
                }
            )
        )
        engines = _record_simulator_engines(monkeypatch)
        out = tmp_path / "out.json"
        assert cli_main([str(spec), "--json", str(out), "--no-store"]) == 0
        assert engines == [DEFAULT_ENGINE]
        (outcome,) = json.loads(out.read_text())["outcomes"]
        assert "engine" not in outcome["scenario"]


def _record_simulator_engines(monkeypatch):
    """Record the ``engine`` of every :class:`SystemSimulator` built from
    here on (probe simulators included) into the returned list."""
    from repro.sim import SystemSimulator

    engines = []
    build = SystemSimulator.__init__

    def recording_init(
        self, arch, workload, model_contention=True, buffer_depth=2,
        engine=DEFAULT_ENGINE,
    ):
        engines.append(engine)
        build(self, arch, workload, model_contention, buffer_depth, engine)

    monkeypatch.setattr(SystemSimulator, "__init__", recording_init)
    return engines

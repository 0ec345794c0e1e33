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

Five layers of coverage:

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
* a coincidence-heavy sweep — costs of a few cycles, tiny chunked flows,
  zero-latency HBM and one or two DMA channels — where same-cycle
  insertion order decides who a queue serves first, plus a named
  reproducer of each divergence it has found;
* the fast-forward, which runs the table lane and jumps ahead when its
  state recurs, against its own full run and against the object kernel's,
  on the known shapes, random pipelines and the coincidence sweep.
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
    """``workload`` with every data flow but the external feeds (one
    transfer per job) split into ``n_chunks`` transfers."""
    produced = {(f.kind, f.label) for st in workload.stages for f in st.outputs}

    def split(flows):
        return tuple(
            dataclasses.replace(f, transfers_per_job=n_chunks)
            if f.kind == "stage" or (f.kind, f.label) in produced
            else f
            for f in flows
        )

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
# Coincidence-heavy property sweep
# --------------------------------------------------------------------------- #
#: byte counts around the 64-byte link width and the HBM widths below, so
#: serialisations tie and differ by one cycle.
_TIE_BYTES = (1, 63, 64, 65, 128, 129, 256)


def _coincidence_case(rng: random.Random):
    """A random ``(arch, workload, model_contention, buffer_depth)`` whose
    events collide: single-digit compute costs, tiny flows cut into up to
    seven chunks, zero or one-cycle HBM latencies and one or two DMA
    channels put many rows of different flows into the same cycle, where
    only insertion order decides who is served first."""
    n_stages = rng.randint(2, 6)
    replication = [rng.choice([1, 1, 2, 3]) for __ in range(n_stages)]
    widths = [[rng.choice([1, 2]) for __ in range(r)] for r in replication]
    clusters = iter(rng.sample(range(ARCH64.n_clusters), sum(map(sum, widths))))

    def flow(kind, **fields):
        return DataFlow(
            kind,
            rng.choice(_TIE_BYTES),
            transfers_per_job=rng.choice([1, 2, 3, 4, 7]),
            **fields,
        )

    # stage i -> i + 1, the same flow on both ends
    links = [flow("stage", stage_id=i + 1) for i in range(n_stages - 1)]
    stages = []
    for i in range(n_stages):
        inputs = ()
        if i == 0 or rng.random() < 0.3:
            # a feed is one transfer per job; its chunk count is still drawn
            feed = flow("hbm", label=f"in{i}")
            inputs = (dataclasses.replace(feed, transfers_per_job=1),)
        if i > 0:
            inputs = (dataclasses.replace(links[i - 1], stage_id=i - 1),) + inputs
        outputs = (links[i],) if i < n_stages - 1 else ()
        if i == n_stages - 1 or rng.random() < 0.4:
            outputs = outputs + (flow("hbm", label=f"out{i}"),)
        replicas = tuple(
            tuple(next(clusters) for __ in range(width)) for width in widths[i]
        )
        analog = rng.choice([1, 2, 3, 5, 8])
        digital = rng.choice([0, 1, 2, 4])
        stages.append(_stage(i, replicas, analog, digital, inputs, outputs))
    n_jobs = rng.choice([5, 9, 16, 24])
    workload = Workload(
        "coincidence", stages, n_jobs=n_jobs, batch_size=n_jobs, tiles_per_image=1
    )
    arch = dataclasses.replace(
        ARCH64,
        hbm=dataclasses.replace(
            ARCH64.hbm,
            access_latency_cycles=rng.choice([0, 1, 2]),
            data_width_bytes=rng.choice([32, 64, 65]),
        ),
        cluster=dataclasses.replace(ARCH64.cluster, dma_channels=rng.choice([1, 2, 16])),
    )
    return arch, workload, rng.random() < 0.85, rng.choice([1, 2, 3])


class TestCoincidenceSweep:
    """Bit-identity where same-cycle insertion order decides the answer.

    The randomized sweep above draws costs in the hundreds of cycles, so
    two rows rarely share a cycle.  Here compute and transfers take a few
    cycles each, and the table lane's queueing state — the DMA FIFO, the
    HBM channel queue, the closed-form chunk runs — must order every tie
    as the object kernel's servers do."""

    @pytest.mark.parametrize("seed", range(200))
    def test_coincident_pipelines_identical(self, seed):
        arch, workload, model_contention, buffer_depth = _coincidence_case(
            random.Random(9000 + seed)
        )
        python = simulate(arch, workload, model_contention, buffer_depth, engine="python")
        table = simulate(arch, workload, model_contention, buffer_depth, engine="table")
        mismatches = result_mismatches(python, table)
        assert mismatches == [], f"seed {seed}: {mismatches}"

    def test_a_same_cycle_dma_release_keeps_the_object_kernels_queue_order(self):
        """Two chunks leave their DMA in one cycle (t=1261) and then queue
        on the single HBM channel.  The object kernel's DMA server inserts a
        queued chunk's completion when a channel frees, so a free-at heap
        that inserted it at issue flipped the two chunks, and stage 0's
        last completion came one cycle late (1480)."""
        workload = Workload(
            "dma-order",
            [
                _stage(0, ((0,),), 1, 4, (_hbm("in", 128, 1),),
                       (_edge(1, 64, 3), _hbm("out0", 129, 2))),
                _stage(1, ((3,),), 3, 1, (_edge(0, 64, 3),),
                       (_edge(2, 1, 7), _hbm("out1", 63, 4))),
                _stage(2, ((6, 7),), 3, 1, (_edge(1, 1, 7),), (_hbm("out2", 129, 4),)),
            ],
            n_jobs=5,
            batch_size=5,
            tiles_per_image=1,
        )
        arch = _fast_hbm_arch(dma_channels=1)
        python = simulate(arch, workload, True, 2, engine="python")
        table = simulate(arch, workload, True, 2, engine="table")
        assert python.completion_trace(0) == (599, 820, 1039, 1259, 1479)
        assert result_mismatches(python, table) == []

    @pytest.mark.xfail(
        strict=True,
        reason="open: a queued link's drain row is inserted at submit, the "
        "object kernel's link finish when the link starts serving it",
    )
    def test_a_queued_link_drain_ties_with_an_hbm_feed(self):
        """Known divergence, kept as a reproducer.  At t=1563 an HBM feed's
        channel and another transfer's last link finish together.  The
        object kernel inserted the link's finish at t=1562, when the link
        started serving that transfer, so the feed lands first; the table
        lane's links are busy-until scalars and insert the drain row at
        submit (t=1549), so the transfer lands first and stage 4's sixth
        completion comes 5 cycles early."""
        workload = Workload(
            "queued-link-tie",
            [
                _stage(0, ((28,),), 1, 1, (_hbm("in", 128, 1),),
                       (_edge(1, 63, 4), _hbm("out0", 1, 7))),
                _stage(1, ((60, 52),), 5, 4, (_edge(0, 63, 4),), (_edge(2, 256, 2),)),
                _stage(2, ((11, 56),), 8, 1, (_edge(1, 256, 2), _hbm("feed2", 1, 1)),
                       (_edge(3, 64, 3),)),
                _stage(3, ((6, 32), (29,), (20,)), 5, 4,
                       (_edge(2, 64, 3), _hbm("feed3", 129, 1)),
                       (_edge(4, 256, 7), _hbm("res", 128, 7))),
                _stage(4, ((38,), (33, 31)), 5, 4,
                       (_edge(3, 256, 7), _hbm("res", 128, 7)), (_hbm("out4", 128, 7),)),
            ],
            n_jobs=9,
            batch_size=9,
            tiles_per_image=1,
        )
        arch = _fast_hbm_arch(dma_channels=ARCH64.cluster.dma_channels)
        python = simulate(arch, workload, True, 2, engine="python")
        table = simulate(arch, workload, True, 2, engine="table")
        assert result_mismatches(python, table) == []


def _fast_hbm_arch(dma_channels):
    """``ARCH64`` with a zero-latency, 32-byte HBM and ``dma_channels``."""
    return dataclasses.replace(
        ARCH64,
        hbm=dataclasses.replace(ARCH64.hbm, access_latency_cycles=0, data_width_bytes=32),
        cluster=dataclasses.replace(ARCH64.cluster, dma_channels=dma_channels),
    )


def _stage(i, replicas, analog, digital, inputs, outputs):
    return StageDescriptor(
        stage_id=i,
        name=f"s{i}",
        analog_replicas=replicas,
        cost=StageCost(
            analog_cycles_per_job=analog,
            digital_cycles_per_job=digital,
            analog_macs_per_job=1,
        ),
        inputs=inputs,
        outputs=outputs,
    )


def _edge(stage_id, n_bytes, chunks):
    return DataFlow("stage", n_bytes, stage_id=stage_id, transfers_per_job=chunks)


def _hbm(label, n_bytes, chunks):
    return DataFlow("hbm", n_bytes, label=label, transfers_per_job=chunks)


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


class TestZeroByteFeed:
    """An external feed of zero bytes per job is one counted local transfer
    plus a 0-cycle delivery record that puts the consumer's cluster in
    first-touch order (``NocModel.transfer_bytes``); the table lane
    compiles it as a local handoff of size 0."""

    @pytest.mark.parametrize("feeds", [(0,), (0, 512)], ids=["alone", "beside-a-feed"])
    @pytest.mark.parametrize("open_", [False, True], ids=["closed", "open"])
    @pytest.mark.parametrize("model_contention", [True, False], ids=["cont", "nocont"])
    def test_zero_byte_feed_identical_across_engines(self, feeds, open_, model_contention):
        workload = _chain(n_stages=3, n_jobs=24, analog=120, bytes_per_job=1024)
        first = dataclasses.replace(
            workload.stages[0],
            inputs=tuple(
                DataFlow("hbm", n_bytes, label=f"in{index}")
                for index, n_bytes in enumerate(feeds)
            ),
        )
        workload = dataclasses.replace(workload, stages=[first, *workload.stages[1:]])
        if open_:
            workload = workload.with_arrivals(
                PoissonArrivals(mean_interarrival_cycles=150.0, seed=3).generate(
                    workload.n_jobs
                )
            )
        python = simulate(ARCH64, workload, model_contention, engine="python")
        table = simulate(ARCH64, workload, model_contention, engine="table")
        assert result_mismatches(python, table) == []


# --------------------------------------------------------------------------- #
# The fast-forward (it always runs the table lane) vs full runs
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
        """The fast-forward runs on the table lane; the reference is the
        object kernel simulating every job."""
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

    def test_fast_forward_simulates_once_on_the_table_lane(self, monkeypatch):
        """Engaged or refused, a fast-forward builds one table-lane
        simulator: a refusal is the full run itself, not a second one."""
        engines = _record_simulator_engines(monkeypatch)
        engaged = simulate(ARCH64, _chain(n_jobs=96, replication=2), fast_forward=True)
        assert engaged.fast_forwarded
        assert engines == ["table"]
        engines.clear()
        refused = simulate(ARCH64, _chain(n_jobs=8), fast_forward=True)
        assert refused.fast_forward_refusal is not None
        assert engines == ["table"]


class TestFastForwardCoincidence:
    """The fast-forward on the coincidence generator, grown to 48, 96 and
    200 jobs, where a jump must carry every same-cycle tie across."""

    def test_sweep_matches_the_full_run(self):
        seeds = 90
        jumped = 0
        for seed in range(seeds):
            n_jobs = (48, 96, 200)[seed % 3]
            arch, workload, model_contention, buffer_depth = _coincidence_case(
                random.Random(seed)
            )
            workload = dataclasses.replace(workload, n_jobs=n_jobs, batch_size=n_jobs)
            full = simulate(arch, workload, model_contention, buffer_depth)
            ff = simulate(arch, workload, model_contention, buffer_depth, fast_forward=True)
            jumped += ff.fast_forwarded
            mismatches = result_mismatches(full, ff, ignore_provenance=True)
            assert mismatches == [], f"seed {seed}, {n_jobs} jobs: {mismatches}"
        # refusals alone must not pass the sweep
        assert jumped >= 0.4 * seeds, jumped

    @pytest.mark.parametrize(
        "seed",
        [
            # contention on, depth 2: an observational certifier of
            # window increments extrapolated a makespan of 44332 (44977)
            668,
            # contention off, depth 3: the replica-symmetry certifier
            # extrapolated a makespan of 44022 (44332)
            551,
        ],
    )
    def test_a_coincident_200_job_run_matches_the_object_kernel(self, seed):
        arch, workload, model_contention, buffer_depth = _coincidence_case(
            random.Random(seed)
        )
        workload = dataclasses.replace(workload, n_jobs=200, batch_size=200)
        full = simulate(arch, workload, model_contention, buffer_depth, engine="python")
        ff = simulate(arch, workload, model_contention, buffer_depth, fast_forward=True)
        assert result_mismatches(full, ff, ignore_provenance=True) == []


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
    here on (fast-forward simulators included) into the returned list."""
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

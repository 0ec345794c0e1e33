"""One benchmark repetition, in a fresh process: set up, cold pass, warm passes.

``run.py`` starts this script once per repetition so that every cold pass
starts from fresh imports, an empty in-memory cache and an empty on-disk
store, the way a first ``python -m repro.scenarios`` invocation does.  The
repetition:

1. imports the package and builds the workload's scenario list (``setup_s``);
2. runs the **cold** pass: ``SweepRunner(max_workers=1, on_error="record")``
   over ``ArtifactCache(store=ArtifactStore(<fresh dir>))``, issuing one
   scenario at a time and the next only after the previous returned (a
   closed loop with one client), timing each scenario from outside;
3. runs the **warm** passes: a new in-memory cache over the filled store,
   as a second CLI invocation would;
4. checks the results and prints one JSON line with the raw measurements
   for ``run.py`` to aggregate.

Every time is host CPU time of this process (``time.process_time``),
scaled to a reference host speed by the calibration slices of
:class:`Meter`: the run is serial and single-threaded, so CPU time is the
wall time minus what other tenants of a shared host took from it, and the
slices absorb how fast the host ran the rest of the time.  ``--setup-only``
measures set-up alone.

With ``--traced`` the passes run under :class:`tracing.Tracer` and the
repetition also reports per-layer figures; the spans go to ``--spans``.

Exit codes: 0 success, 3 a correctness check failed, anything else a crash.
"""

from time import process_time as clock

_T0 = clock()

import argparse
import contextlib
import hashlib
import heapq
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.scenarios import (
    ArtifactCache,
    ArtifactStore,
    ExecutionSpec,
    Scenario,
    SweepRunner,
    run_scenario,
)

from tracing import Tracer

LADDER = ("naive", "pipelined", "replicated", "final")

#: the paper's headline point: ResNet-18 3x256x256 on the Table I system
#: (512 clusters, 256x256 crossbars), FINAL mapping, batch 16.
PAPER_POINT = Scenario(input_shape=(3, 256, 256), batch_size=16, level="final")

#: the paper's headline figures, as quoted in tests/test_analysis_runner.py.
PAPER_FIGURES = {
    "paper_tops_relerr": ("throughput_tops", 20.2),
    "paper_fps_relerr": ("images_per_second", 3303.0),
    "paper_gops_mm2_relerr": ("area_efficiency_gops_mm2", 42.0),
    "paper_tops_w_relerr": ("energy_efficiency_tops_w", 6.5),
}

#: mean Poisson inter-arrival of the open ``ff_grid`` point: the closed
#: FINAL batch-64 macro's steady-state service time (16484 cycles per job)
#: offered at 80% load.  A fixed input, so a model change cannot move it.
POISSON_MEAN_CYCLES = 16484 / 0.8

#: simulation record fields that say how a result was computed, not what
#: was simulated; a fast-forwarded run differs from its plain twin only here.
PROVENANCE_FIELDS = ("fast_forwarded", "fast_forward_refusal")

#: warm passes per untraced repetition; ``warm_s`` is their median.
WARM_PASSES = 5

#: iterations of one calibration slice, its CPU seconds on the reference
#: host, and the CPU seconds of work between two slices.  Every reported
#: time is scaled by ``CALIBRATION_REF_S`` over the mean slice measured
#: around and between the work, i.e. it reads as seconds on the reference
#: host: on a shared host the CPU time of identical work swung by a quarter
#: between runs, and the calibration swung with it.
CALIBRATION_LOOPS = 20_000
CALIBRATION_REF_S = 0.02
CALIBRATION_EVERY_S = 0.2


# --------------------------------------------------------------------------- #
# Workloads: the seed sets every random choice, the program only sees specs
# --------------------------------------------------------------------------- #
def paper_ladder(seed: int) -> List[Scenario]:
    """Fig. 5A: the mapping ladder on the paper's system, batch 16 and 64."""
    return [
        Scenario(input_shape=(3, 256, 256), batch_size=batch, level=level)
        for level in LADDER
        for batch in (16, 64)
    ]


#: ``(model, input shape, classes, clusters, crossbar)`` of the fast-forward
#: refusal grid's networks.
FF_NETWORKS = (
    ("resnet18", (3, 64, 64), None, 256, 256),
    ("resnet34", (3, 64, 64), None, 512, 256),
    ("tiny_cnn", (3, 32, 32), 10, 16, 128),
    ("mobilenet_v2", (3, 32, 32), 10, 128, 256),
)


def ff_grid(seed: int) -> List[Scenario]:
    """Fast-forward requested on the refusal grid plus three FINAL macros."""
    points = [
        Scenario(
            model=model,
            input_shape=shape,
            num_classes=classes,
            n_clusters=clusters,
            crossbar_size=crossbar,
            batch_size=64,
            level=level,
            fast_forward=True,
        )
        for model, shape, classes, clusters, crossbar in FF_NETWORKS
        for level in LADDER
    ]
    macro = Scenario(
        input_shape=(3, 256, 256), batch_size=64, level="final", fast_forward=True
    )
    arrivals = {
        "process": "poisson",
        "mean_interarrival_cycles": POISSON_MEAN_CYCLES,
        "seed": seed,
    }
    return points + [
        macro,
        macro.replace(model_contention=False),
        macro.replace(arrivals=arrivals),
    ]


def dse_sweep(seed: int) -> List[Scenario]:
    """180 cheap design points, in seeded order, with an accuracy slice."""
    points = [
        Scenario(
            model="tiny_cnn",
            input_shape=(3, 32, 32),
            num_classes=10,
            crossbar_size=crossbar,
            n_clusters=clusters,
            batch_size=batch,
            level=level,
        )
        for crossbar in (64, 128, 256)
        for clusters in (16, 32, 64, 128)
        for batch in (1, 4, 16)
        for level in LADDER
    ]
    points += [
        Scenario(
            input_shape=(3, 64, 64), n_clusters=clusters, batch_size=batch, level=level
        )
        for clusters in (256, 512)
        for batch in (1, 4, 16)
        for level in LADDER
    ]
    points += [
        Scenario(
            model="tiny_cnn",
            input_shape=(3, 32, 32),
            num_classes=10,
            crossbar_size=crossbar,
            n_clusters=16,
            batch_size=1,
            execution=ExecutionSpec(noise=noise, seed=seed),
        )
        for crossbar in (64, 128, 256)
        for noise in ("ideal", "typical", "pessimistic", "drift")
    ]
    random.Random(seed).shuffle(points)
    return points


WORKLOADS = {
    "paper_ladder": paper_ladder,
    "ff_grid": ff_grid,
    "dse_sweep": dse_sweep,
}


# --------------------------------------------------------------------------- #
# Passes
# --------------------------------------------------------------------------- #
def calibration_slice() -> float:
    """CPU seconds of a fixed pure-Python heap and dict loop (no repro code)."""
    start = clock()
    heap, table = [], {}
    for i in range(CALIBRATION_LOOPS):
        heapq.heappush(heap, (i * 7919) % 100_003)
        table[i & 4095] = table.get(i & 4095, 0) + i
    while heap:
        heapq.heappop(heap)
    return clock() - start


class Meter:
    """CPU time of measured work, with calibration slices interleaved.

    A slice runs before the first unit of work, after every
    ``CALIBRATION_EVERY_S`` of work and at :meth:`close`; slices are never
    inside a measured unit.  :attr:`scale` turns measured CPU seconds into
    seconds at the reference host speed.
    """

    def __init__(self):
        self.slices = [calibration_slice()]
        self._since_slice = 0.0

    def measure(self, work):
        """``(result, CPU seconds)`` of ``work()``."""
        start = clock()
        result = work()
        seconds = clock() - start
        self._since_slice += seconds
        if self._since_slice >= CALIBRATION_EVERY_S:
            self.slices.append(calibration_slice())
            self._since_slice = 0.0
        return result, seconds

    def close(self) -> None:
        self.slices.append(calibration_slice())

    @property
    def scale(self) -> float:
        return CALIBRATION_REF_S / statistics.mean(self.slices)


@dataclass
class Pass:
    """What one closed-loop pass over a scenario list produced."""

    ids: List[int]
    outcomes: List[object]
    failures: List[object]
    #: CPU seconds of each scenario, and of the whole pass.
    latencies: List[float]
    cpu_s: float
    cache_stats: object


def run_pass(
    items: Sequence[Tuple[int, Scenario]],
    store_root: Optional[str],
    meter: Meter,
    tracer: Optional[Tracer] = None,
) -> Pass:
    """Run ``(id, scenario)`` items one at a time through one sweep runner."""
    store = ArtifactStore(store_root) if store_root is not None else None
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        runner, cpu_s = meter.measure(
            lambda: SweepRunner(
                max_workers=1, on_error="record", cache=ArtifactCache(store=store)
            )
        )
        outcomes, failures, latencies = [], [], []
        result = None
        for scenario_id, scenario in items:
            if tracer is not None:
                tracer.scenario = scenario_id
            result, seconds = meter.measure(lambda: runner.run([scenario]))
            latencies.append(seconds)
            cpu_s += seconds
            outcomes.append(result.outcomes[0] if result.outcomes else None)
            failures.extend(result.failures)
    return Pass(
        ids=[scenario_id for scenario_id, _ in items],
        outcomes=outcomes,
        failures=failures,
        latencies=latencies,
        cpu_s=cpu_s,
        cache_stats=result.cache_stats if result is not None else None,
    )


# --------------------------------------------------------------------------- #
# Correctness
# --------------------------------------------------------------------------- #
class CheckFailed(Exception):
    """A result the benchmark refuses to time."""


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def records(outcome) -> Dict[str, object]:
    """Every simulated record of one outcome; no host-time field."""
    return {
        "metrics": outcome.metrics.as_record(),
        "simulation": outcome.simulation.as_dict(),
        "accuracy": outcome.accuracy.as_dict() if outcome.accuracy else None,
    }


def statistics_only(outcome) -> Dict[str, object]:
    """:func:`records` without the fast-forward provenance fields."""
    rendered = records(outcome)
    for name in PROVENANCE_FIELDS:
        rendered["simulation"].pop(name)
    return rendered


def check_no_failures(run: Pass, what: str) -> None:
    if run.failures:
        first = run.failures[0]
        raise CheckFailed(
            f"{what}: {len(run.failures)} of {len(run.ids)} scenarios failed; "
            f"first {first.label}: {first.error_type}: {first.message}"
        )


def check_warm_matches_cold(cold: Pass, warm: Pass) -> None:
    for scenario_id, before, after in zip(cold.ids, cold.outcomes, warm.outcomes):
        if _canonical(records(before)) != _canonical(records(after)):
            raise CheckFailed(
                f"warm record of scenario {scenario_id} ({before.label}) "
                "differs from its cold twin"
            )


def check_matches_plain(cold: Pass, plain: Pass) -> None:
    """Fast-forwarded results must equal a plain run, field for field."""
    by_id = dict(zip(cold.ids, cold.outcomes))
    for scenario_id, twin in zip(plain.ids, plain.outcomes):
        if _canonical(statistics_only(by_id[scenario_id])) != _canonical(
            statistics_only(twin)
        ):
            raise CheckFailed(
                f"fast-forward result of scenario {scenario_id} ({twin.label}) "
                "differs from the plain run of the same point"
            )


def results_digest(run: Pass) -> str:
    """Order-independent hash of every simulated statistic of a pass."""
    rendered = sorted(
        _canonical({"scenario": o.scenario.as_dict(), **statistics_only(o)})
        for o in run.outcomes
    )
    return hashlib.sha256("\n".join(rendered).encode()).hexdigest()


def paper_relerr(scenarios: Sequence[Scenario], cold: Pass) -> Dict[str, float]:
    """Relative error of the paper's headline point against its figures."""
    if PAPER_POINT in scenarios:
        metrics = cold.outcomes[scenarios.index(PAPER_POINT)].metrics
    else:
        metrics = run_scenario(PAPER_POINT).metrics
    return {
        name: abs(getattr(metrics, field) / figure - 1.0)
        for name, (field, figure) in PAPER_FIGURES.items()
    }


# --------------------------------------------------------------------------- #
# Per-layer figures of a traced pass
# --------------------------------------------------------------------------- #
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _tree_bytes(root: str) -> int:
    return sum(path.stat().st_size for path in Path(root).rglob("*") if path.is_file())


def layer_metrics(
    tracer: Tracer,
    run: Pass,
    store_bytes: int,
    plain_simulate_s: Dict[int, float],
) -> Dict[str, float]:
    """Per-layer figures of one traced pass (unprefixed names)."""
    self_s = tracer.self_time_by_name()
    simulate = tracer.named("sim.simulate")
    attempts = [span for span in simulate if span["fast_forward"]]
    engaged = [span for span in attempts if span["engaged"]]
    refused = [span for span in attempts if not span["engaged"]]
    duration = lambda spans: sum((span["end"] - span["start"] for span in spans), 0.0)
    refused_twins = [plain_simulate_s.get(span["scenario"]) for span in refused]
    overhead = (
        _ratio(duration(refused), sum(refused_twins))
        if refused and None not in refused_twins
        else 0.0
    )
    cycles = sum(span["cycles"] for span in simulate)
    stats = run.cache_stats
    hits, misses, disk_hits = (
        stats.hit_count(),
        stats.miss_count(),
        stats.disk_hit_count(),
    )
    loads = tracer.named("scenarios.store.load")
    writes = tracer.named("scenarios.store.write")
    return {
        "dnn.graph_s": self_s.get("dnn.graph", 0.0),
        "core.mapping_s": self_s.get("core.mapping", 0.0),
        "core.mapping_calls": len(tracer.named("core.mapping")),
        "sim.workload.lower_s": self_s.get("sim.workload.lower", 0.0),
        "sim.simulate_s": self_s.get("sim.simulate", 0.0),
        "sim.simulate_calls": len(simulate),
        "sim.sim_cycles": cycles,
        "sim.sim_cycles_per_s": _ratio(cycles, self_s.get("sim.simulate", 0.0)),
        "sim.steady_state.attempts": len(attempts),
        "sim.steady_state.engaged": len(engaged),
        "sim.steady_state.engaged_ratio": _ratio(len(engaged), len(attempts)),
        "sim.steady_state.engaged_s": duration(engaged),
        "sim.steady_state.refused_s": duration(refused),
        "sim.steady_state.refusal_overhead_ratio": overhead,
        "analysis.metrics_s": self_s.get("analysis.metrics", 0.0),
        "aimc.accuracy_s": self_s.get("aimc.accuracy", 0.0),
        "aimc.reference_s": self_s.get("aimc.reference", 0.0),
        "scenarios.pipeline.self_s": self_s.get("scenarios.pipeline", 0.0),
        "scenarios.cache.hits": hits,
        "scenarios.cache.misses": misses,
        "scenarios.cache.disk_hits": disk_hits,
        "scenarios.cache.hit_ratio": _ratio(hits + disk_hits, hits + misses + disk_hits),
        "scenarios.store.loads": len(loads),
        "scenarios.store.load_s": self_s.get("scenarios.store.load", 0.0),
        "scenarios.store.writes": len(writes),
        "scenarios.store.write_s": self_s.get("scenarios.store.write", 0.0),
        "scenarios.store.bytes": store_bytes,
        "scenarios.sweep.self_s": self_s.get("scenarios.sweep", 0.0),
        "trace.coverage": sum(self_s.values()) / run.cpu_s,
    }


# --------------------------------------------------------------------------- #
# One repetition
# --------------------------------------------------------------------------- #
def repetition(
    workload: str,
    seed: int,
    *,
    traced: bool,
    checks: bool,
    scratch: Path,
    spans_path: Optional[Path],
) -> Dict[str, object]:
    """Measure one repetition; ``check_failed`` names a failed check, if any."""
    scenarios = WORKLOADS[workload](seed)
    setup_s = clock() - _T0
    items = list(enumerate(scenarios))
    tracers = {"cold": Tracer("cold"), "warm": Tracer("warm")} if traced else {}
    scratch.mkdir(parents=True, exist_ok=True)
    store_root = tempfile.mkdtemp(prefix="store-", dir=scratch)
    try:
        cold_meter = Meter()
        cold = run_pass(items, store_root, cold_meter, tracers.get("cold"))
        cold_meter.close()
        store_bytes = {"cold": _tree_bytes(store_root)}
        warm_meter = Meter()
        warms = [
            run_pass(items, store_root, warm_meter, tracers.get("warm"))
            for _ in range(1 if traced else WARM_PASSES)
        ]
        warm_meter.close()
        store_bytes["warm"] = _tree_bytes(store_root)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(store_root, ignore_errors=True)
    passes = [cold] + warms
    scale = cold_meter.scale
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "host_speed": scale,
        "setup_s": setup_s * scale,
        "cold_s": cold.cpu_s * scale,
        "warm_s": statistics.median(warm.cpu_s for warm in warms) * warm_meter.scale,
        "latencies": [seconds * scale for seconds in cold.latencies],
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(len(run.ids) for run in passes),
        "failed": sum(len(run.failures) for run in passes),
        "check_failed": None,
    }
    try:
        for run in passes:
            check_no_failures(run, "sweep")
        for warm in warms:
            check_warm_matches_cold(cold, warm)
        result["digest"] = results_digest(cold)
        fast = [(i, s.replace(fast_forward=False)) for i, s in items if s.fast_forward]
        plain_simulate_s: Dict[int, float] = {}
        if fast and (checks or traced):
            tracers["plain"] = Tracer("plain")
            plain = run_pass(fast, None, Meter(), tracers["plain"])
            result["attempted"] += len(plain.ids)
            result["failed"] += len(plain.failures)
            check_no_failures(plain, "plain twin pass")
            check_matches_plain(cold, plain)
            for span in tracers["plain"].named("sim.simulate"):
                plain_simulate_s[span["scenario"]] = span["end"] - span["start"]
        if checks:
            result["paper_relerr"] = paper_relerr(scenarios, cold)
    except CheckFailed as error:
        result["check_failed"] = str(error)
        return result
    if traced:
        result["layers"] = {
            f"{label}.{name}": value
            for label, run in (("cold", cold), ("warm", warms[0]))
            for name, value in layer_metrics(
                tracers[label], run, store_bytes[label], plain_simulate_s
            ).items()
        }
        if spans_path is not None:
            with spans_path.open("w") as handle:
                for tracer in tracers.values():
                    tracer.write(handle)
    return result


def setup_sample(workload: str, seed: int) -> Dict[str, float]:
    """Set-up time alone: imports plus building the scenario list."""
    WORKLOADS[workload](seed)
    setup_s = clock() - _T0
    meter = Meter()
    meter.close()
    meter.close()
    return {"setup_s": setup_s * meter.scale}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--checks", action="store_true")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.setup_only:
        print(json.dumps(setup_sample(args.workload, args.seed)))
        return 0
    result = repetition(
        args.workload,
        args.seed,
        traced=args.traced,
        checks=args.checks,
        scratch=args.scratch,
        spans_path=args.spans,
    )
    print(json.dumps(result))
    return 3 if result["check_failed"] else 0


if __name__ == "__main__":
    sys.exit(main())

"""Golden ledger of simulated answers: build it, or compare against it.

The simulator's other gates are relative (engine against engine,
fast-forward against the full run), so a change that moves every answer
the same way passes them.  The ledger pins the exact observables of a
fixed set of points:

* ``tests/golden/paper_ladder.json`` — ResNet-18 3x256x256 on
  ``ArchConfig.paper()`` at batch 16, the naive, replicated and final
  mappings (the ``study`` fixture of ``benchmarks/conftest.py``);
* ``tests/golden/zoo.json`` — the zoo points of
  ``tests/test_sim_fast_forward.py``'s ``ZOO`` list, which the kernel
  equivalence suite also runs.

Per point it records the makespan, each stage's last completion, the five
traffic counters, the active clusters and the four headline metrics.

Regenerate both files after a deliberate model change (and state the
moved values in CHANGES.md)::

    PYTHONPATH=src python tools/golden.py

The tests compare against the files with :func:`mismatches`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden"
PAPER_LADDER = GOLDEN / "paper_ladder.json"
ZOO = GOLDEN / "zoo.json"

#: the headline metrics the paper reports (and perfbench's paper_*_relerr)
HEADLINE = (
    "throughput_tops",
    "images_per_second",
    "area_efficiency_gops_mm2",
    "energy_efficiency_tops_w",
)


def _ranges(ids: List[int]) -> str:
    """``[0, 1, 2, 5, 7, 8]`` -> ``"0-2,5,7-8"``."""
    spans: List[List[int]] = []
    for cid in ids:
        if spans and cid == spans[-1][1] + 1:
            spans[-1][1] = cid
        else:
            spans.append([cid, cid])
    return ",".join(f"{a}-{b}" if b > a else str(a) for a, b in spans)


def observables(result, metrics) -> Dict[str, object]:
    """The pinned observables of one simulated point, as plain JSON data."""
    tracer = result.tracer
    return {
        "makespan_cycles": result.makespan_cycles,
        "stage_last_completion": {
            str(sid): trace[-1] for sid, trace in sorted(tracer.stage_completions.items())
        },
        "traffic": {
            "hbm_bytes": tracer.hbm_bytes,
            "noc_bytes": tracer.noc_bytes,
            "noc_byte_hops": tracer.noc_byte_hops,
            "local_bytes": tracer.local_bytes,
            "n_transfers": tracer.n_transfers,
        },
        "clusters_used": _ranges(sorted(tracer.clusters)),
        "headline": {name: getattr(metrics, name) for name in HEADLINE},
    }


def mismatches(expected: Dict[str, object], actual: Dict[str, object]) -> List[str]:
    """``path: expected -> actual`` for every differing observable."""
    out: List[str] = []

    def walk(path: str, a: object, b: object) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                walk(f"{path}.{key}", a.get(key), b.get(key))
        elif a != b:
            out.append(f"{path}: {a} -> {b}")

    walk("", expected, actual)
    return [line.lstrip(".") for line in out]


def load(path: Path) -> Dict[str, Dict[str, object]]:
    return json.loads(path.read_text())


def paper_ladder() -> Dict[str, Dict[str, object]]:
    """Simulate the paper ladder exactly as the ``study`` fixture does."""
    from repro import ArchConfig, OptimizationLevel, models
    from repro.analysis import compute_metrics
    from repro.core import MappingOptimizer, lower_to_workload
    from repro.sim import simulate

    arch = ArchConfig.paper()
    optimizer = MappingOptimizer(
        models.resnet18(input_shape=(3, 256, 256)), arch, batch_size=16
    )
    points = {}
    for level in OptimizationLevel.all():
        mapping = optimizer.build(level)
        result = simulate(arch, lower_to_workload(mapping))
        metrics = compute_metrics(result, mapping, name=level.value)
        points[level.value] = observables(result, metrics)
    return points


def zoo_point(case) -> Dict[str, object]:
    """Simulate one ``ZOO`` case of ``tests/test_sim_fast_forward.py``."""
    from repro.analysis import compute_metrics
    from repro.sim import simulate

    from test_sim_fast_forward import _zoo_workload

    arch, workload = _zoo_workload(*case[1:8])
    result = simulate(arch, workload)
    return observables(result, compute_metrics(result))


def zoo() -> Dict[str, Dict[str, object]]:
    from test_sim_fast_forward import ZOO as CASES

    return {case[0]: zoo_point(case) for case in CASES}


def main() -> int:
    sys.path.insert(0, str(REPO / "tests"))
    for path, build in ((PAPER_LADDER, paper_ladder), (ZOO, zoo)):
        points = build()
        if path.exists():
            for line in mismatches(load(path), points):
                print(f"{path.name}: {line}")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(points, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(REPO)} ({len(points)} points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

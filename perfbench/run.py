"""Benchmark of record: end-to-end host times, paper error and a per-layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload paper_ladder --seed 1 --seconds 30 --trace 0

The command repeats fresh-process repetitions of one workload (see
``worker.py``) for about ``--seconds`` seconds and prints every metric by
name and unit, then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of untraced repetitions; ``--trace 1`` alternates traced
and untraced repetitions and reports the per-layer metrics of the traced
ones (the untraced ones give ``trace.overhead_ratio``).  Every figure is
the median over repetitions.  Any failed correctness check makes the command
exit 1; a checkout without the package makes it exit 2 before measuring.
Workloads, metrics and the layer to end-to-end table: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper_ladder", "ff_grid", "dse_sweep")
#: the whole run ends by then: a repetition still running is a hang.
DEADLINE_S = 170
#: where repetitions keep their scratch stores and the traced spans.
OUTPUT_DIR = ".perfbench"
#: extra set-up-only processes per untraced run, so ``setup_s`` is the
#: median of several samples even when few repetitions fit.
SETUP_SAMPLES = 5

class RepetitionError(Exception):
    """A repetition crashed or hung: no figure of this run can be trusted."""


def repetition(root: Path, args, deadline: float, *flags: str) -> Dict:
    """Run one repetition in a fresh process and return its measurements."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scratch", str(root / OUTPUT_DIR / "tmp"),
        *flags,
    ]
    try:
        completed = subprocess.run(
            command,
            cwd=root,
            env=worker_env(root),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(deadline - perf_counter(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise RepetitionError(f"the run did not finish within {DEADLINE_S} s")
    lines = completed.stdout.strip().splitlines()
    if completed.returncode not in (0, 3) or not lines:
        raise RepetitionError(f"repetition exited with code {completed.returncode}")
    return json.loads(lines[-1])


def worker_env(root: Path) -> Dict[str, str]:
    """The checkout's own package on the path, BLAS held to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def warm_up(root: Path, deadline: float) -> None:
    """Import the checkout's package once, so bytecode compiles untimed."""
    probe = (
        "import sys, repro.scenarios as s; "
        f"sys.exit(not s.__file__.startswith({str(root / 'src')!r}))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=root,
        env=worker_env(root),
        timeout=max(deadline - perf_counter(), 1.0),
    )
    if completed.returncode != 0:
        raise RepetitionError("the checkout's repro package does not import")


def measure(root: Path, args, deadline: float) -> List[Dict]:
    """Repetitions until ``--seconds`` have passed.

    The first repetition runs the correctness checks that sit outside the
    timed region; with ``--trace 1`` traced repetitions (which always run
    them, for the refusal overhead) alternate with untraced ones.
    """
    start = perf_counter()
    reps: List[Dict] = []
    spans = root / OUTPUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    while True:
        flags = []
        if args.trace and len(reps) % 2 == 0:
            flags += ["--traced", "--spans", str(spans)]
        if not reps:
            flags.append("--checks")
        reps.append(repetition(root, args, deadline, *flags))
        if reps[-1]["check_failed"]:
            return reps
        enough = len(reps) >= (2 if args.trace else 1)
        if enough and perf_counter() - start >= args.seconds:
            return reps


def end_to_end(reps: List[Dict], setups: List[Dict]) -> Dict[str, float]:
    plain = [rep for rep in reps if not rep["traced"]]
    # each scenario's median over repetitions, then percentiles over scenarios
    per_point = [
        statistics.median(times) for times in zip(*(rep["latencies"] for rep in plain))
    ]
    deciles = statistics.quantiles(per_point, n=10, method="inclusive")
    metrics = {
        name: statistics.median(rep[name] for rep in plain)
        for name in ("cold_s", "warm_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(rep["setup_s"] for rep in plain + setups)
    metrics["point_p50_s"] = deciles[4]
    metrics["point_p90_s"] = deciles[8]
    metrics.update(reps[0]["paper_relerr"])
    return metrics


def per_layer(reps: List[Dict]) -> Dict[str, float]:
    traced = [rep for rep in reps if rep["traced"]]
    plain = [rep for rep in reps if not rep["traced"]]
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    metrics["trace.overhead_ratio"] = statistics.median(
        rep["cold_s"] for rep in traced
    ) / statistics.median(rep["cold_s"] for rep in plain)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run from a checkout of the repository: src/repro is missing",
              file=sys.stderr)
        return 2
    try:
        warm_up(root, deadline)
        reps = measure(root, args, deadline)
        setups = [] if args.trace else [
            repetition(root, args, deadline, "--setup-only")
            for _ in range(SETUP_SAMPLES)
        ]
    except RepetitionError as error:
        print(f"benchmark aborted: {error}", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    return report(args.workload, args.seed, bool(args.trace), reps, setups, declared)


def report(
    workload: str,
    seed: int,
    trace: bool,
    reps: List[Dict],
    setups: List[Dict],
    declared: Dict,
) -> int:
    """Print the run's metrics and result line; the command's exit code.

    Names and units come from ``declared`` (the parsed ``BENCHMARK.json``):
    the metrics of the mode are exactly its ``per_layer`` or ``end_to_end``
    list.
    """
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    print(f"workload = {workload}")
    print(f"seed = {seed}")
    print(f"repetitions = {len(reps)}")
    speed = statistics.median(rep["host_speed"] for rep in reps)
    print(f"host_speed = {speed:.4g} (times are scaled to a host where it reads 1)")
    print(f"failed_ratio = {failed / attempted:.6g} ratio")
    problem = reps[-1]["check_failed"]
    if problem is None and len({rep["digest"] for rep in reps}) > 1:
        problem = "simulated results differ between repetitions of one seed"
    if problem is not None:
        print(f"correctness check failed: {problem}", file=sys.stderr)
        print(json.dumps(
            {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}
        ))
        return 1
    print(f"results_digest = {reps[0]['digest']}")
    values = per_layer(reps) if trace else end_to_end(reps, setups)
    metrics = {
        metric["name"]: {"value": values.pop(metric["name"]), "unit": metric["unit"]}
        for metric in declared["per_layer" if trace else "end_to_end"]
    }
    if values:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(values)}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(
        {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two runs of the benchmark of record: a base checkout against a head.

Usage::

    python tools/perf_gate.py RUNS_DIR [BENCHMARK_JSON]

``RUNS_DIR`` holds, for every workload ``BENCHMARK_JSON`` declares
(default: the ``BENCHMARK.json`` next to the current directory),
``base-<workload>.json`` and ``head-<workload>.json``: each the last line
``perfbench/run.py --workload <workload>`` printed in that checkout.  An
empty or missing file stands for a run that aborted before its result line.
Beside them, ``<side>-<workload>.log`` may hold the run's full output:
when either side's log has a ``results_digest = ...`` line, the gate
prints the base and head digests and whether they are the same.  A
changed digest means the simulated answers moved; it is reported for
review, never gated on.

The gate fails (exit 1) when

* either run of a workload is missing or not ``"correct": true``;
* the head fails more scenarios than the base;
* an ``end_to_end`` metric declared in ``BENCHMARK_JSON`` and reported by
  the base is missing from the head, or is worse than the base value by
  more than ``bound`` x the base value, in the direction its ``better``
  field gives.

That relative reading of ``bound`` is this gate's own rule: both sides are
single runs on one host, so a metric's bound is read as the largest
tolerated fractional change of the base value.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SIDES = ("base", "head")


def load_result_line(path: Path) -> dict:
    """One result line, or ``{}`` when the run left none (aborted)."""
    try:
        line = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}
    return line if isinstance(line, dict) else {}


def load_digest(path: Path) -> str | None:
    """The ``results_digest`` a run's log printed, or ``None`` if it has none."""
    try:
        text = Path(path).read_text()
    except OSError:
        return None
    prefix = "results_digest = "
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def digest_row(workload: str, base: str | None, head: str | None) -> str | None:
    """The report row comparing two runs' digests (``None``: neither has one)."""
    if base is None and head is None:
        return None
    verdict = "same" if base == head else "CHANGED"
    old, new = (digest[:16] if digest else "absent" for digest in (base, head))
    return f"{workload:12} {'results_digest':22} {old:>16} -> {new:>16}  {verdict}"


def is_worse(metric: dict, old: float, new: float) -> bool:
    """Whether ``new`` is worse than ``old`` by more than the metric's bound."""
    worse = new - old if metric["better"] == "lower" else old - new
    return worse > metric["bound"] * abs(old)


def compare_workload(
    workload: str, base: dict, head: dict, declared: list[dict]
) -> tuple[list[str], list[str]]:
    """Compare one workload's result lines; returns (report rows, problems)."""
    incorrect = [
        side for side, line in zip(SIDES, (base, head))
        if line.get("correct") is not True
    ]
    if incorrect:
        return [], [f"{workload}: {' and '.join(incorrect)} run not correct"]
    rows, problems = [], []
    if head["failed"] > base["failed"]:
        problems.append(f"{workload}: failed {base['failed']} -> {head['failed']}")
    for metric in declared:
        name = metric["name"]
        if name not in base["metrics"]:
            continue
        old = base["metrics"][name]["value"]
        if name not in head["metrics"]:
            problems.append(f"{workload}: {name} missing from the head run")
            continue
        new = head["metrics"][name]["value"]
        verdict = "ok"
        if is_worse(metric, old, new):
            verdict = f"WORSE by more than {metric['bound']:.0%}"
            problems.append(f"{workload}: {name} {old:.6g} -> {new:.6g}")
        rows.append(f"{workload:12} {name:22} {old:12.6g} -> {new:12.6g}  {verdict}")
    return rows, problems


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print("usage: python tools/perf_gate.py RUNS_DIR [BENCHMARK_JSON]", file=sys.stderr)
        return 2
    runs = Path(args[0])
    benchmark = json.loads(Path(args[1] if len(args) == 2 else "BENCHMARK.json").read_text())
    problems = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        base, head = (load_result_line(runs / f"{side}-{workload}.json") for side in SIDES)
        rows, found = compare_workload(workload, base, head, benchmark["end_to_end"])
        digests = digest_row(
            workload, *(load_digest(runs / f"{side}-{workload}.log") for side in SIDES)
        )
        if digests is not None:
            rows.append(digests)
        for row in rows:
            print(row)
        problems.extend(found)
    for problem in problems:
        print(f"perf gate: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

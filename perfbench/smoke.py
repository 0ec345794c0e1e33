"""Smoke test of the benchmark itself, on a shrunken grid.

Run from the repository root::

    python3 perfbench/smoke.py

It checks that

* a shrunken workload yields exactly the metric names ``BENCHMARK.json``
  declares, in both modes, and the command prints each of them;
* a tampered warm record and an altered fast-forward result each make the
  command fail, while the fast-forward provenance fields alone do not;
* the real command runs end to end on one workload, and exits non-zero
  without a result in a directory that holds only the benchmark.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
from repro.scenarios import ExecutionSpec, Scenario  # noqa: E402
from repro.scenarios import pipeline  # noqa: E402

SCRATCH = ROOT / run.OUTPUT_DIR / "smoke"


def shrunken(seed: int):
    """One engaging and one refusing fast-forward point, plus an accuracy point."""
    return [
        Scenario(
            input_shape=(3, 64, 64),
            n_clusters=256,
            batch_size=64,
            level="naive",
            fast_forward=True,
        ),
        Scenario(
            model="tiny_cnn",
            input_shape=(3, 32, 32),
            num_classes=10,
            n_clusters=16,
            crossbar_size=128,
            batch_size=64,
            level="final",
            fast_forward=True,
        ),
        Scenario(
            model="tiny_cnn",
            input_shape=(3, 32, 32),
            num_classes=10,
            n_clusters=16,
            batch_size=1,
            execution=ExecutionSpec(noise="typical", seed=seed),
        ),
    ]


def rep(traced: bool, checks: bool = True):
    return worker.repetition(
        "smoke", 0, traced=traced, checks=checks, scratch=SCRATCH, spans_path=None
    )


DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def printed(trace: bool, reps):
    """Exit code and parsed result line of the command's report step."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.report("smoke", 0, trace, reps, [], DECLARED)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


@contextlib.contextmanager
def patched(owner, name, replacement):
    original = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, original)


def check_metric_names() -> None:
    plain, traced = rep(traced=False), rep(traced=True)
    assert plain["check_failed"] is None and traced["check_failed"] is None
    assert traced["layers"]["cold.sim.steady_state.engaged"] == 1
    assert traced["layers"]["cold.sim.steady_state.attempts"] == 2
    for trace, reps, kind in (
        (False, [plain], "end_to_end"),
        (True, [traced, plain], "per_layer"),
    ):
        names = [metric["name"] for metric in DECLARED[kind]]
        code, lines, result = printed(trace, reps)
        assert code == 0 and result["correct"], result
        for name in names:
            assert any(line.startswith(f"{name} = ") for line in lines), name
        if not trace:
            assert all(result["metrics"][name]["value"] > 0 for name in names)


def check_tampered_warm_record_fails() -> None:
    calls = []
    original = worker.run_pass

    def tampering(items, store_root, meter, tracer=None):
        result = original(items, store_root, meter, tracer)
        calls.append(store_root)
        if len(calls) == 2:  # the first warm pass
            outcome = result.outcomes[-1]
            metrics = dataclasses.replace(
                outcome.metrics, throughput_tops=outcome.metrics.throughput_tops * 2
            )
            result.outcomes[-1] = dataclasses.replace(outcome, metrics=metrics)
        return result

    with patched(worker, "run_pass", tampering):
        result = rep(traced=False, checks=False)
    assert "warm record" in (result["check_failed"] or ""), result["check_failed"]
    code, _, line = printed(False, [result])
    assert code == 1 and line["correct"] is False


def check_altered_fast_forward_fails() -> None:
    original = pipeline.simulate

    @functools.wraps(original)
    def altering(*args, **kwargs):
        result = original(*args, **kwargs)
        if result.fast_forwarded:
            result.makespan_cycles += 1
        return result

    with patched(pipeline, "simulate", altering):
        result = rep(traced=False)
    assert "fast-forward result" in (result["check_failed"] or ""), result
    code, _, line = printed(False, [result])
    assert code == 1 and line["correct"] is False


def check_command() -> None:
    command = [sys.executable, str(HERE / "run.py"), "--workload", "dse_sweep",
               "--seed", "0", "--seconds", "1", "--trace", "0"]
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=180)
    assert completed.returncode == 0, completed.stdout
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}

    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    completed = subprocess.run(command, cwd=bare, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, timeout=180)
    assert completed.returncode != 0 and not completed.stdout.strip(), completed
    shutil.rmtree(bare)


def main() -> int:
    assert set(run.WORKLOADS) == set(worker.WORKLOADS)
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    worker.WORKLOADS["smoke"] = shrunken
    check_metric_names()
    check_tampered_warm_record_fails()
    check_altered_fast_forward_fails()
    check_command()
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("perfbench smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

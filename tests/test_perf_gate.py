"""Tests for the pull-request perf gate (tools/perf_gate.py).

The gate compares the result line ``perfbench/run.py`` prints in a base
checkout with the one it prints in the head: it must fail on an incorrect
or aborted run, on more failed scenarios, and on a declared end-to-end
metric worse than ``bound`` x the base value, and pass everything else.
It also reports each side's ``results_digest`` from the runs' logs,
without gating on it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("perf_gate", REPO / "tools" / "perf_gate.py")
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

DECLARED = [
    {"name": "cold_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "warm_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1},
]
BENCHMARK = {
    "workloads": [{"name": "paper_ladder"}, {"name": "ff_grid"}],
    "end_to_end": DECLARED,
}


def result_line(correct=True, failed=0, **values):
    """A result line shaped like the last line perfbench/run.py prints."""
    values = {"cold_s": 4.0, "warm_s": 0.5, "qps": 100.0, **values}
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()},
    }


def write_runs(root, benchmark=BENCHMARK, **overrides):
    """Write base/head lines for every workload; ``overrides`` maps
    ``<side>_<workload>`` to a replacement line (``None``: no file)."""
    root.mkdir(parents=True, exist_ok=True)
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for side in ("base", "head"):
            line = overrides.get(f"{side}_{workload}", result_line())
            if line is not None:
                (root / f"{side}-{workload}.json").write_text(json.dumps(line) + "\n")
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark))
    return path


class TestIsWorse:
    @pytest.mark.parametrize(
        "better, old, new, expected",
        [
            ("lower", 1.0, 1.19, False),  # slower, within the bound
            ("lower", 1.0, 1.21, True),  # slower, past the bound
            ("lower", 1.0, 0.5, False),  # faster
            ("higher", 1.0, 0.81, False),  # lower, within the bound
            ("higher", 1.0, 0.79, True),  # lower, past the bound
            ("higher", 1.0, 2.0, False),  # higher
            ("lower", 0.0, 0.0, False),  # a zero base that stays zero
            ("lower", 0.0, 1e-9, True),  # a zero base tolerates nothing
            ("lower", -1.0, -0.9, False),  # the bound scales with |base|
            ("lower", -1.0, -0.7, True),
        ],
    )
    def test_bound_is_relative_to_the_base_value(self, better, old, new, expected):
        metric = {"name": "m", "better": better, "bound": 0.2}
        assert perf_gate.is_worse(metric, old, new) is expected


class TestLoadResultLine:
    @pytest.mark.parametrize(
        "content", ["", '{"correct": true, "metr', "[1, 2]", "not json"]
    )
    def test_unusable_line_reads_as_aborted(self, tmp_path, content):
        path = tmp_path / "head-ff_grid.json"
        path.write_text(content)
        assert perf_gate.load_result_line(path) == {}

    def test_missing_file_reads_as_aborted(self, tmp_path):
        assert perf_gate.load_result_line(tmp_path / "absent.json") == {}

    def test_result_line_round_trips(self, tmp_path):
        path = tmp_path / "base-ff_grid.json"
        path.write_text(json.dumps(result_line()) + "\n")
        assert perf_gate.load_result_line(path) == result_line()


class TestCompareWorkload:
    def test_identical_runs_pass_with_one_row_per_metric(self):
        rows, problems = perf_gate.compare_workload(
            "ff_grid", result_line(), result_line(), DECLARED
        )
        assert problems == []
        assert len(rows) == len(DECLARED)
        assert all(row.endswith("ok") for row in rows)

    @pytest.mark.parametrize(
        "base_correct, head_correct, who",
        [(True, False, "head"), (False, True, "base"), (False, False, "base and head")],
    )
    def test_incorrect_run_fails(self, base_correct, head_correct, who):
        rows, problems = perf_gate.compare_workload(
            "ff_grid",
            result_line(correct=base_correct),
            result_line(correct=head_correct),
            DECLARED,
        )
        assert problems == [f"ff_grid: {who} run not correct"]
        assert rows == []  # timings of an incorrect run are not compared

    def test_aborted_run_fails(self):
        _, problems = perf_gate.compare_workload("dse_sweep", result_line(), {}, DECLARED)
        assert problems == ["dse_sweep: head run not correct"]

    def test_more_failed_scenarios_fail(self):
        _, problems = perf_gate.compare_workload(
            "dse_sweep", result_line(failed=1), result_line(failed=2), DECLARED
        )
        assert problems == ["dse_sweep: failed 1 -> 2"]

    def test_fewer_failed_scenarios_pass(self):
        _, problems = perf_gate.compare_workload(
            "dse_sweep", result_line(failed=2), result_line(failed=0), DECLARED
        )
        assert problems == []

    def test_inflated_metric_names_workload_metric_and_values(self):
        rows, problems = perf_gate.compare_workload(
            "paper_ladder", result_line(), result_line(cold_s=5.0), DECLARED
        )
        assert problems == ["paper_ladder: cold_s 4 -> 5"]
        [row] = [row for row in rows if "cold_s" in row]
        assert row.endswith("WORSE by more than 20%")

    def test_metric_the_base_does_not_report_is_skipped(self):
        base = result_line()
        del base["metrics"]["qps"]
        rows, problems = perf_gate.compare_workload(
            "ff_grid", base, result_line(qps=1.0), DECLARED
        )
        assert problems == []
        assert not any("qps" in row for row in rows)

    def test_metric_missing_from_the_head_fails(self):
        head = result_line()
        del head["metrics"]["warm_s"]
        _, problems = perf_gate.compare_workload("ff_grid", result_line(), head, DECLARED)
        assert problems == ["ff_grid: warm_s missing from the head run"]

    def test_undeclared_metric_is_not_gated(self):
        rows, problems = perf_gate.compare_workload(
            "ff_grid", result_line(extra_s=1.0), result_line(extra_s=100.0), DECLARED
        )
        assert problems == []
        assert not any("extra_s" in row for row in rows)


class TestMain:
    def test_equal_runs_exit_zero(self, tmp_path, capsys):
        benchmark = write_runs(tmp_path)
        assert perf_gate.main([str(tmp_path), str(benchmark)]) == 0
        out = capsys.readouterr().out
        assert "perf gate:" not in out
        assert out.count(" ok\n") == len(BENCHMARK["workloads"]) * len(DECLARED)

    def test_inflated_head_metric_exits_one(self, tmp_path, capsys):
        benchmark = write_runs(tmp_path, head_ff_grid=result_line(warm_s=0.7))
        assert perf_gate.main([str(tmp_path), str(benchmark)]) == 1
        out = capsys.readouterr().out
        assert "perf gate: ff_grid: warm_s 0.5 -> 0.7" in out
        assert "paper_ladder: " not in out.split("perf gate:", 1)[1]

    def test_incorrect_head_line_exits_one(self, tmp_path, capsys):
        benchmark = write_runs(tmp_path, head_paper_ladder=result_line(correct=False))
        assert perf_gate.main([str(tmp_path), str(benchmark)]) == 1
        assert "perf gate: paper_ladder: head run not correct" in capsys.readouterr().out

    def test_missing_result_file_exits_one(self, tmp_path, capsys):
        benchmark = write_runs(tmp_path, base_ff_grid=None)
        assert perf_gate.main([str(tmp_path), str(benchmark)]) == 1
        assert "perf gate: ff_grid: base run not correct" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [[], ["a", "b", "c"]])
    def test_wrong_arguments_print_usage(self, argv, capsys):
        assert perf_gate.main(argv) == 2
        assert "usage:" in capsys.readouterr().err

    def test_gate_understands_the_repository_benchmark(self, tmp_path, capsys):
        """Every metric BENCHMARK.json declares has a direction and a bound
        the gate reads, and equal runs of every workload pass."""
        benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
        names = [metric["name"] for metric in benchmark["end_to_end"]]
        for metric in benchmark["end_to_end"]:
            assert metric["better"] in ("lower", "higher")
            assert metric["bound"] > 0
        line = result_line(**{name: 1.0 for name in names})
        path = write_runs(
            tmp_path,
            benchmark=benchmark,
            **{
                f"{side}_{entry['name']}": line
                for entry in benchmark["workloads"]
                for side in ("base", "head")
            },
        )
        assert perf_gate.main([str(tmp_path), str(path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == len(benchmark["workloads"]) * len(names)


def run_log(digest=None):
    """A run's full output, shaped like what perfbench/run.py prints."""
    lines = ["workload = ff_grid", "seed = 1"]
    if digest is not None:
        lines.append(f"results_digest = {digest}")
    lines += ["cold_s = 4 s", json.dumps(result_line())]
    return "\n".join(lines) + "\n"


class TestDigests:
    def test_digest_read_from_the_log(self, tmp_path):
        path = tmp_path / "head-ff_grid.log"
        path.write_text(run_log("ab" * 32))
        assert perf_gate.load_digest(path) == "ab" * 32

    def test_log_without_a_digest_or_no_log_reads_as_none(self, tmp_path):
        path = tmp_path / "head-ff_grid.log"
        path.write_text(run_log())
        assert perf_gate.load_digest(path) is None
        assert perf_gate.load_digest(tmp_path / "absent.log") is None

    @pytest.mark.parametrize(
        "base, head, verdict",
        [
            ("a" * 64, "a" * 64, "same"),
            ("a" * 64, "b" * 64, "CHANGED"),
            (None, "b" * 64, "CHANGED"),
            ("a" * 64, None, "CHANGED"),
        ],
    )
    def test_row_names_both_digests_and_the_verdict(self, base, head, verdict):
        row = perf_gate.digest_row("ff_grid", base, head)
        assert row.startswith("ff_grid ")
        assert row.endswith(f"  {verdict}")
        for digest in (base, head):
            assert (digest[:16] if digest else "absent") in row

    def test_no_row_when_neither_log_has_a_digest(self):
        assert perf_gate.digest_row("ff_grid", None, None) is None

    def test_changed_digest_is_reported_but_not_gated(self, tmp_path, capsys):
        benchmark = write_runs(tmp_path)
        (tmp_path / "base-ff_grid.log").write_text(run_log("a" * 64))
        (tmp_path / "head-ff_grid.log").write_text(run_log("b" * 64))
        (tmp_path / "base-paper_ladder.log").write_text(run_log("c" * 64))
        (tmp_path / "head-paper_ladder.log").write_text(run_log("c" * 64))
        assert perf_gate.main([str(tmp_path), str(benchmark)]) == 0
        out = capsys.readouterr().out
        assert "perf gate:" not in out
        rows = [row for row in out.splitlines() if "results_digest" in row]
        assert [row.split()[0] for row in rows] == ["paper_ladder", "ff_grid"]
        assert rows[0].endswith("same") and rows[1].endswith("CHANGED")

    def test_digest_row_does_not_rescue_a_failed_gate(self, tmp_path, capsys):
        benchmark = write_runs(tmp_path, head_ff_grid=result_line(warm_s=0.7))
        for side in ("base", "head"):
            (tmp_path / f"{side}-ff_grid.log").write_text(run_log("a" * 64))
        assert perf_gate.main([str(tmp_path), str(benchmark)]) == 1
        out = capsys.readouterr().out
        assert "results_digest" in out and "perf gate: ff_grid: warm_s 0.5 -> 0.7" in out

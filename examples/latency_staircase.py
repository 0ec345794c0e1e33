#!/usr/bin/env python3
"""Reproduce the Fig. 5D per-stage latency staircase from completion traces.

The paper's Fig. 5D visualises the pipelined execution as a staircase: each
pipeline stage starts once its first input tile arrives and finishes its
jobs at the bottleneck rate, so plotting every stage's active interval over
time yields a staircase whose tread height is the steady-state interval.

PR 5's simulator records the full per-stage job-completion traces
(``SimulationResult.stage_completions`` — see ``docs/simulator.md``), so the
staircase falls straight out of one simulation.  This example runs the flow
through the scenario stage pipeline (sharing the artifact cache with every
other entry point), renders the staircase as ASCII art, and demonstrates
that the steady-state fast-forward reproduces the traces bit for bit.

Run with::

    PYTHONPATH=src python examples/latency_staircase.py
"""

from repro.scenarios import (
    ArtifactCache,
    Scenario,
    graph_stage,
    mapping_stage,
    simulation_stage,
    workload_stage,
)

#: width of the time axis, in characters.
PLOT_COLUMNS = 72


def staircase(result, workload) -> str:
    """ASCII rendering of the per-stage completion staircase."""
    traces = result.stage_completions
    makespan = max(1, result.makespan_cycles)
    lines = [
        f"{'stage':<18} {'first':>10} {'last':>10}  activity over "
        f"{makespan} cycles",
        "-" * (42 + PLOT_COLUMNS),
    ]
    for stage in workload.stages:
        trace = traces.get(stage.stage_id, ())
        if not trace:
            continue
        first, last = trace[0], trace[-1]
        start_col = first * (PLOT_COLUMNS - 1) // makespan
        end_col = max(start_col, last * (PLOT_COLUMNS - 1) // makespan)
        row = [" "] * PLOT_COLUMNS
        for column in range(start_col, end_col + 1):
            row[column] = "#"
        lines.append(
            f"{stage.name[:18]:<18} {first:>10} {last:>10}  {''.join(row)}"
        )
    return "\n".join(lines)


def main() -> None:
    scenario = Scenario(
        model="resnet18",
        input_shape=(3, 64, 64),
        batch_size=64,
        level="naive",
        n_clusters=256,
        crossbar_size=256,
    )
    cache = ArtifactCache()
    graph = graph_stage(scenario, cache)
    arch = scenario.build_arch()
    mapping = mapping_stage(
        graph, arch, scenario.batch_size, scenario.level_enum, cache=cache
    )
    workload = workload_stage(mapping, cache=cache)
    result = simulation_stage(arch, workload, cache=cache)

    print(f"{scenario.label}: {workload.n_jobs} jobs across "
          f"{len(workload.stages)} pipeline stages")
    print(staircase(result, workload))
    print()
    final = workload.final_stage()
    trace = result.completion_trace(final.stage_id)
    deltas = [b - a for a, b in zip(trace, trace[1:])]
    print(f"final stage ({final.name}): first completion at {trace[0]} cycles, "
          f"steady-state interval {deltas[-1]} cycles/job")

    # The fast-forward produces the same staircase without simulating
    # every job: once the simulator's state recurs, it jumps the repeating
    # windows and copies their traces exactly.
    fast = simulation_stage(arch, workload, fast_forward=True, cache=cache)
    identical = fast.stage_completions == result.stage_completions
    print(f"fast-forwarded run: engaged={fast.fast_forwarded}, "
          f"traces identical to the full run: {identical}")


if __name__ == "__main__":
    main()

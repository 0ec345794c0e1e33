"""Spans around the public entry points of each layer, recorded from outside.

The benchmark does not edit the program to trace it: :meth:`Tracer.installed`
swaps the names that ``repro.scenarios.pipeline`` and ``repro.scenarios.sweep``
look up at call time (and two ``ArtifactStore`` methods) for wrappers that
record one span per call, and puts the originals back on exit.  Spans are
kept in memory and written out by the caller when the run ends.

A span is ``(id, name, start, end, parent, scenario)`` in process CPU
seconds, plus a few attributes (the simulate span records whether
fast-forward was requested and engaged, and the simulated cycles).  Calls are single-threaded and properly nested,
so a span's self time is its duration minus the summed durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
from collections import defaultdict
from time import process_time as clock
from typing import Callable, Dict, List, Optional


def _simulate_attrs(bound: inspect.BoundArguments, result) -> Dict[str, object]:
    return {
        "fast_forward": bool(bound.arguments["fast_forward"]),
        "engaged": bool(result.fast_forwarded),
        "cycles": int(result.makespan_cycles),
    }


def _entry_points():
    """``(owner, attribute, span name, attrs)`` for every wrapped entry point."""
    from repro.scenarios import pipeline, sweep
    from repro.scenarios.store import ArtifactStore

    return (
        (pipeline, "graph_stage", "dnn.graph", None),
        (pipeline, "mapping_stage", "core.mapping", None),
        (pipeline, "workload_stage", "sim.workload.lower", None),
        (pipeline, "simulate", "sim.simulate", _simulate_attrs),
        (pipeline, "compute_metrics", "analysis.metrics", None),
        (pipeline, "accuracy_stage", "aimc.accuracy", None),
        (pipeline, "reference_output_stage", "aimc.reference", None),
        (sweep, "run_scenario", "scenarios.pipeline", None),
        (sweep.SweepRunner, "run", "scenarios.sweep", None),
        (ArtifactStore, "load", "scenarios.store.load", None),
        (ArtifactStore, "store", "scenarios.store.write", None),
    )


class Tracer:
    """In-memory span recorder for one benchmark pass."""

    def __init__(self, label: str):
        self.label = label
        self.spans: List[Optional[dict]] = []
        #: scenario id stamped on every span opened while it is set.
        self.scenario: Optional[int] = None
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, attrs=None) -> Callable:
        signature = inspect.signature(fn) if attrs is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[span_id] = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "scenario": self.scenario,
                }
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[span_id].update(attrs(bound, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every layer entry point through this tracer while active."""
        originals = []
        try:
            for owner, attribute, name, attrs in _entry_points():
                original = owner.__dict__[attribute]
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        children = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        return {
            span["id"]: span["end"] - span["start"] - children[span["id"]]
            for span in self.spans
        }

    def self_time_by_name(self) -> Dict[str, float]:
        totals = defaultdict(float)
        for span_id, seconds in self.self_times().items():
            totals[self.spans[span_id]["name"]] += seconds
        return dict(totals)

    def named(self, name: str) -> List[dict]:
        return [span for span in self.spans if span["name"] == name]

    def write(self, handle) -> None:
        """Append the spans as JSON lines tagged with this tracer's label."""
        for span in self.spans:
            handle.write(json.dumps({"pass": self.label, **span}) + "\n")

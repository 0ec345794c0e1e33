"""The zoo points' simulated answers equal the golden ledger.

Every other simulator gate is relative — engine against engine,
fast-forward against the full run — so a change to the model itself (say,
every analog job 10% slower) passes them.  ``tests/golden/zoo.json`` pins
the exact observables of the ``ZOO`` points the kernel equivalence suite
runs; ``benchmarks/test_golden_paper_ladder.py`` does the same for the paper
ladder.  After a deliberate model change, regenerate both files with
``PYTHONPATH=src python tools/golden.py`` and state the moved values in
CHANGES.md.
"""

import importlib.util
from pathlib import Path

import pytest

from test_sim_fast_forward import ZOO

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("golden", REPO / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_the_ledger_covers_exactly_the_zoo_points():
    assert sorted(golden.load(golden.ZOO)) == sorted(case[0] for case in ZOO)


@pytest.mark.parametrize("case", ZOO, ids=[case[0] for case in ZOO])
def test_zoo_point_matches_the_golden_ledger(case):
    expected = golden.load(golden.ZOO)[case[0]]
    assert golden.mismatches(expected, golden.zoo_point(case)) == []


def test_mismatches_name_each_moved_value():
    expected = {"a": {"b": 1, "c": 2.5}, "d": "0-3"}
    actual = {"a": {"b": 1, "c": 2.75}, "d": "0-4"}
    assert golden.mismatches(expected, actual) == ["a.c: 2.5 -> 2.75", "d: 0-3 -> 0-4"]
    assert golden.mismatches(expected, expected) == []

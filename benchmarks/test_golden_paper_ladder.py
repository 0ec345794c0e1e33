"""The paper ladder's simulated answers equal the golden ledger.

``tests/golden/paper_ladder.json`` pins the exact observables (makespan,
each stage's last completion, the traffic counters, the active clusters
and the four headline metrics) of the ``study`` fixture's ResNet-18
points, so a change to the model shows up here even when every relative
gate stays green.  Regenerate with ``PYTHONPATH=src python
tools/golden.py`` after a deliberate model change.
"""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("golden", REPO / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_paper_ladder_matches_the_golden_ledger(study):
    actual = {
        level.value: golden.observables(entry["result"], entry["metrics"])
        for level, entry in study.items()
    }
    assert golden.mismatches(golden.load(golden.PAPER_LADDER), actual) == []

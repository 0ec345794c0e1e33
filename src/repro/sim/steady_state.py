"""Exact fast-forward of periodic pipeline runs, by state recurrence.

The pipelined dataflow of the paper's execution model repeats itself after
warm-up: with constant per-job costs and self-timed flow control, the
simulator's whole state comes back, shifted by some ``W`` jobs and ``D``
cycles.  The table lane is deterministic, so from then on the run repeats
too, until the end of the job stream is in sight.

:func:`fast_forward_simulate` runs the table lane once and watches for that
recurrence.  When the final stage's completion count ``ref`` reaches a
multiple of ``L``, the lcm of every stage's round-robin widths
(:func:`_round_robin_period`), it schedules a read-only same-cycle
*checkpoint*, which renders the lane's full state relative to now and to
job ``ref`` (:meth:`TableProgram.recurrence_key`).  When two
checkpoints ``W`` jobs and ``D`` cycles apart have equal keys, it moves the
state ``k`` windows ahead in place (:meth:`TableProgram.jump`), adds the
skipped windows to every additive record and completion trace
(:meth:`TableProgram.repeat_window`) and lets the run finish for real.
``k`` leaves the skipped windows, and the first window after the jump,
clear of every ``< n_jobs`` check.  That is a proof by determinism, not an
observation of outputs, and it holds under NoC contention; every result is
the full run's, bit for bit.  ``docs/simulator.md`` gives the argument.

A run whose state never recurs early enough simply finishes: a refusal
costs the checkpoints, not a second run.  The result then carries a typed
:class:`FastForwardRefusal` naming why.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..arch.config import ArchConfig
from .system import SimulationResult, SystemSimulator
from .workload import Workload

logger = logging.getLogger(__name__)

# --------------------------------------------------------------------- #
# Typed refusals
# --------------------------------------------------------------------- #

#: arrival-driven workload: the arrival schedule reads absolute times and
#: job indices, so the state never recurs.
REFUSAL_OPEN_WORKLOAD = "open-workload"
#: the run finished without a state recurrence far enough from its end.
REFUSAL_NON_PERIODIC = "non-periodic-probe"

#: every reason a :class:`FastForwardRefusal` may carry.
REFUSAL_REASONS = (REFUSAL_OPEN_WORKLOAD, REFUSAL_NON_PERIODIC)


@dataclass(frozen=True)
class FastForwardRefusal:
    """Why a requested fast-forward did not engage.

    ``reason`` is one of :data:`REFUSAL_REASONS`; ``detail`` is a
    human-readable elaboration (checkpoints taken, signature repeats, or
    the recurrence that came too late).
    """

    reason: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.reason not in REFUSAL_REASONS:
            raise ValueError(f"unknown refusal reason {self.reason!r}")

    def __str__(self) -> str:
        return f"{self.reason}: {self.detail}" if self.detail else self.reason

    def to_payload(self) -> Dict[str, object]:
        return {"reason": self.reason, "detail": self.detail}

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "FastForwardRefusal":
        return cls(reason=str(payload["reason"]), detail=str(payload.get("detail", "")))


def _round_robin_period(workload: Workload) -> int:
    """``L``: the lcm over stages of ``lcm(replication, digital_slots)``.

    Apart from the ``< n_jobs`` checks, ``job % replication`` and
    ``job % digital_slots`` are the lane's only reads of an absolute job
    index, so a shift by a multiple of ``L`` jobs leaves them unchanged.
    """
    return math.lcm(
        *(math.lcm(stage.replication, stage.digital_slots) for stage in workload.stages)
    )


class _RecurrenceSimulator(SystemSimulator):
    """A table-lane simulator that jumps ahead on the first state recurrence."""

    def __init__(self, arch, workload, model_contention, buffer_depth):
        super().__init__(
            arch, workload, model_contention=model_contention, buffer_depth=buffer_depth
        )
        self._final_id = workload.final_stage().stage_id
        self._period = _round_robin_period(workload)
        self._signatures: Set[tuple] = set()
        #: full key -> (ref, cycle, additive records) of its checkpoint
        self._keys: Dict[tuple, Tuple[int, int, tuple]] = {}
        self.checkpoints = 0
        self.repeats = 0
        #: ``(W, D, k)`` of the recurrence found, once one is (``k < 1``:
        #: too close to the end to jump)
        self.recurrence: Optional[Tuple[int, int, int]] = None

    def job_finished(self, stage_id: int, job_index: int) -> None:
        super().job_finished(stage_id, job_index)
        if (
            stage_id == self._final_id
            and self.recurrence is None
            and self._ref() % self._period == 0
        ):

            def checkpoint() -> None:
                self._checkpoint(checkpoint)

            self.engine.at(self.engine._now, checkpoint)

    def _ref(self) -> int:
        """``ref``: the final stage's completion count."""
        return self._table._by_sid[self._final_id].jobs_completed

    def _checkpoint(self, entry) -> None:
        # a later completion in this cycle may have moved ``ref`` on
        ref = self._ref()
        if self.recurrence is not None or ref % self._period:
            return
        table = self._table
        self.checkpoints += 1
        engine = self.engine
        active = engine._active
        start = next(index for index, item in enumerate(active) if item is entry) + 1
        signature = table.recurrence_signature(start, ref)
        if signature not in self._signatures:
            # equal keys have equal signatures: a first signature cannot
            # match any earlier key, so its key is never built
            self._signatures.add(signature)
            return
        self.repeats += 1
        key, lo, hi = table.recurrence_key(start, ref)
        now = engine._now
        seen = self._keys.get(key)
        if seen is None:
            self._keys[key] = (ref, now, table.additive_records())
            return
        then_ref, then, records = seen
        window, cycles = ref - then_ref, now - then
        # ``hi + 1``: the largest job index a ``< n_jobs`` check can see
        # next (a feed requests the job after its last delivery)
        k = (self.workload.n_jobs - 1 - (hi + 1)) // window - 1
        self.recurrence = (window, cycles, k)
        self._keys.clear()
        if k < 1:
            return
        table.repeat_window(records, k, cycles)
        table.jump(start, lo, k * window, k * cycles)
        logger.info(
            "fast-forward: the state at job %d recurs after W=%d jobs, D=%d "
            "cycles; jumping %d windows",
            ref,
            window,
            cycles,
            k,
        )

    def refusal_detail(self) -> str:
        if self.recurrence is not None:
            window, cycles, k = self.recurrence
            return (
                f"the state recurred with W={window} jobs, D={cycles} cycles, "
                f"but only k={k} < 1 windows fit before the end of the run"
            )
        return (
            f"no state recurrence in {self.checkpoints} checkpoints "
            f"(round-robin period {self._period}; {self.repeats} signature repeats)"
        )


def fast_forward_simulate(
    arch: ArchConfig,
    workload: Workload,
    model_contention: bool = True,
    buffer_depth: int = 2,
) -> SimulationResult:
    """Simulate ``workload`` on the table lane, skipping recurring windows.

    Always returns the full run's :class:`SimulationResult`, bit for bit:
    ``fast_forwarded`` says whether a jump happened, and otherwise
    ``fast_forward_refusal`` says why not.  Open workloads are refused up
    front.
    """
    if workload.arrival_cycles:
        result = SystemSimulator(
            arch, workload, model_contention=model_contention, buffer_depth=buffer_depth
        ).run()
        result.fast_forward_refusal = FastForwardRefusal(
            REFUSAL_OPEN_WORKLOAD,
            "an arrival schedule reads absolute times, so the state never recurs",
        )
        return result
    simulator = _RecurrenceSimulator(arch, workload, model_contention, buffer_depth)
    result = simulator.run()
    recurrence = simulator.recurrence
    if recurrence is not None and recurrence[2] >= 1:
        result.fast_forwarded = True
    else:
        result.fast_forward_refusal = FastForwardRefusal(
            REFUSAL_NON_PERIODIC, simulator.refusal_detail()
        )
    return result

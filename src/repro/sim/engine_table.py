"""Cycle-batched state-machine dispatch: opcode rows + a handler jump table.

Profiling the FINAL-mapping run on the object kernel (:mod:`repro.sim.engine`)
shows the hot interior is the per-event Python **callbacks** and the
bookkeeping around them: per-job closures created by ``_StageRuntime``
(start/finish/deliver), credit-grant lambdas, per-link ``Server`` jobs and
barrier arrivals whose only purpose is to delay one completion by a
statically known number of cycles.

:class:`TableEngine` keeps the object kernel's bucketed queue (heap of
distinct timestamps, FIFO list per timestamp, zero-heap same-cycle lane)
and its exact dispatch contract, but adds a typed lane for *compiled*
state machines: an **opcode row**.  An event may be a plain callable *or*
an integer row index into a columnar (structure-of-arrays) table of
pending rows::

    op      int   index into the handler jump table (:meth:`set_handlers`)
    cycles  int   pending deferral, or the consumed marker
    arg     obj   the handler argument

``arg`` is usually a packed integer (``state_id * n_jobs + job``) naming a
slot in the client's flat state vectors.  Dispatching an opcode row is one
table lookup plus one handler call on dense integer state — no closure is
ever allocated, and the client's transition logic
(:class:`repro.sim.system_table.TableProgram`) advances whole lifecycle
steps per handler call instead of one callback hop each.

Two scheduling entry points:

* :meth:`sched_op` ≡ ``at(time, lambda: handler(arg))`` — the handler
  runs when the row is dispatched;
* :meth:`defer_op` ≡ ``at(time, lambda: after(cycles, lambda:
  handler(arg)))`` — at dispatch the row *re-queues itself* into bucket
  ``time + cycles`` (zero allocation: the row flips its ``cycles`` field
  to the consumed marker), and the handler runs when the re-queued row is
  dispatched.  A ``cycles == 0`` deferral re-queues at the tail of the
  active bucket, byte-identical to ``after(0, ...)`` ordering.

Plain callables keep flowing through the same buckets unchanged — mixed
runs dispatch in exact bucket order — so what the tables do not compile
(an open workload's arrival holds; a closed run has none) stays a
callback, and the object primitives (:class:`~repro.sim.engine.Server`,
:class:`~repro.sim.engine.CreditStore`) run on this engine as on the
object kernel.  Every row counts as one event.  The bit-identity gate is
``tests/test_sim_kernel_equivalence.py``.

The exact fast-forward (:mod:`repro.sim.steady_state`) reads and moves the
pending queue between two events: :meth:`TableEngine.pending_rows` lists
every pending row relative to now, and :meth:`TableEngine.shift` moves all
of them a number of cycles ahead, in place.  A plain run calls neither.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Tuple

from .engine import Engine, SimulationError

#: ``cycles`` marker of an opcode row whose deferral (if any) has been
#: consumed: dispatching it runs the handler.  ``sched_op`` rows are born
#: consumed; ``defer_op`` rows carry ``cycles >= 0`` and flip to the
#: marker when they re-queue themselves.
_CONSUMED = -1


class TableEngine(Engine):
    """Event queue with an opcode lane dispatched through a jump table.

    A drop-in :class:`~repro.sim.engine.Engine`: ``at``/``after``/``run``
    keep their exact semantics for callable events, and callables and
    opcode rows coexist in the same buckets, dispatching in FIFO order.
    """

    __slots__ = ("_row_op", "_row_cycles", "_row_arg", "_free_rows", "_handlers")

    def __init__(self):
        super().__init__()
        # columnar row storage (structure-of-arrays); rows are recycled
        # through a free list so the table stays dense.
        self._row_op: List[int] = []
        self._row_cycles: List[int] = []
        self._row_arg: List[object] = []
        self._free_rows: List[int] = []
        self._handlers: Tuple = ()

    def set_handlers(self, handlers: Sequence) -> None:
        """Register the opcode jump table: row ``op`` runs ``handlers[op]``."""
        self._handlers = tuple(handlers)

    # ------------------------------------------------------------------ #
    # Opcode lane
    # ------------------------------------------------------------------ #
    def sched_op(self, time: int, op: int, arg) -> None:
        """Schedule ``handlers[op](arg)`` at ``time``.

        One event, like ``at(time, callback)``; the handler runs when the
        row is dispatched.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event in the past ({time} < {self._now})"
            )
        free = self._free_rows
        if free:
            row = free.pop()
            self._row_op[row] = op
            self._row_cycles[row] = _CONSUMED
            self._row_arg[row] = arg
        else:
            row = len(self._row_op)
            self._row_op.append(op)
            self._row_cycles.append(_CONSUMED)
            self._row_arg.append(arg)
        if time == self._now and self._active is not None:
            self._active.append(row)
            return
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [row]
            heapq.heappush(self._times, time)
        else:
            bucket.append(row)

    def defer_op(self, time: int, cycles: int, op: int, arg) -> None:
        """At ``time``, defer ``handlers[op](arg)`` by ``cycles``.

        Two events: the row is dispatched at ``time`` and re-queues
        *itself* into bucket ``time + cycles`` (flipping ``cycles`` to the
        consumed marker — no second allocation), where its dispatch runs
        the handler.  The insertion into the target bucket happens at
        simulated time ``time``, preserving the object kernel's FIFO
        position (where its server-finish events are inserted).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event in the past ({time} < {self._now})"
            )
        if cycles < 0:
            raise SimulationError(f"deferral cannot be negative, got {cycles}")
        free = self._free_rows
        if free:
            row = free.pop()
            self._row_op[row] = op
            self._row_cycles[row] = cycles
            self._row_arg[row] = arg
        else:
            row = len(self._row_op)
            self._row_op.append(op)
            self._row_cycles.append(cycles)
            self._row_arg.append(arg)
        if time == self._now and self._active is not None:
            self._active.append(row)
            return
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [row]
            heapq.heappush(self._times, time)
        else:
            bucket.append(row)

    def reset(self) -> None:
        """Release the row table and free list (post-run compaction).

        Row storage grows to the run's peak number of in-flight rows and
        is only ever recycled, never shrunk, while events are pending.  A
        long-lived worker (e.g. a ``SweepRunner`` process that keeps
        simulators or engines reachable between scenarios) would otherwise
        retain the peak-size columns; after a drained run this drops them.
        Raises :class:`SimulationError` when called mid-run or with events
        still queued — a reset must never orphan a live row index sitting
        in a bucket.
        """
        if self._running:
            raise SimulationError("cannot reset an engine from inside run()")
        if self._times:
            raise SimulationError("cannot reset an engine with pending events")
        self._row_op.clear()
        self._row_cycles.clear()
        self._row_arg.clear()
        self._free_rows.clear()

    # ------------------------------------------------------------------ #
    # State recurrence (the exact fast-forward)
    # ------------------------------------------------------------------ #
    def _pending(self, start: int):
        """``(delay, bucket)`` pairs in dispatch order: the active bucket's
        entries from index ``start``, then every pending bucket by time."""
        now = self._now
        yield 0, self._active[start:]
        for time in sorted(self._times):
            yield time - now, self._buckets[time]

    def pending_signature(self, start: int) -> Tuple[int, Tuple[int, ...]]:
        """The cheap part of :meth:`pending_rows`: how many rows follow
        index ``start`` of the active bucket, and every pending bucket's
        delay from now."""
        now = self._now
        tail = sum(type(entry) is int for entry in self._active[start:])
        return tail, tuple(sorted(time - now for time in self._times))

    def pending_rows(self, start: int) -> List[Tuple[int, int, int, object]]:
        """Every pending row as ``(delay, op, cycles, arg)``, in dispatch order.

        The active bucket's entries from index ``start`` come first (delay
        0), then every pending bucket in time order.  Callables are
        skipped: in a closed run the only ones are the fast-forward's
        read-only checkpoints.
        """
        row_op = self._row_op
        row_cycles = self._row_cycles
        row_arg = self._row_arg
        return [
            (delay, row_op[entry], row_cycles[entry], row_arg[entry])
            for delay, bucket in self._pending(start)
            for entry in bucket
            if type(entry) is int
        ]

    def shift(self, start: int, cycles: int, shift_arg) -> None:
        """Move every pending event ``cycles`` later, in place.

        Called from an event of the active bucket: its entries from index
        ``start`` move to a new bucket at ``now + cycles``, so :meth:`run`
        finds the active bucket drained and pops the next time.  Each
        pending row's argument becomes ``shift_arg(op, arg)``.  The heap and
        the bucket map are mutated, not replaced, since :meth:`run` holds
        them.
        """
        row_op = self._row_op
        row_arg = self._row_arg
        active = self._active
        moved = {time + cycles: bucket for time, bucket in self._buckets.items()}
        if len(active) > start:
            moved[self._now + cycles] = active[start:]
            del active[start:]
        for bucket in moved.values():
            for entry in bucket:
                if type(entry) is int:
                    row_arg[entry] = shift_arg(row_op[entry], row_arg[entry])
        self._buckets.clear()
        self._buckets.update(moved)
        # a sorted list is a heap
        self._times[:] = sorted(moved)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def run(self) -> int:
        """Run until the queue drains; returns the final simulated time.

        Same contract as :meth:`repro.sim.engine.Engine.run` — including
        non-re-entrancy and the in-order requeue of a batch's unprocessed
        tail when an event raises — extended to opcode rows, each of which
        counts as one event.  The dispatch is folded into the bucket walk:
        one jump-table call per row with no intermediate method dispatch,
        which is where a compiled run spends its remaining per-event time.
        A bucket drains through a list iterator rather than by indexing
        until ``IndexError``: the iterator re-reads the length at every
        step, so same-cycle appends still run in order, and a drained
        bucket costs no raised exception.
        """
        if self._running:
            raise SimulationError(
                "Engine.run() is not re-entrant: it was called from inside "
                "an event callback while a run is already in progress"
            )
        self._running = True
        processed = 0
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        heappush = heapq.heappush
        row_op = self._row_op
        row_cycles = self._row_cycles
        row_arg = self._row_arg
        free = self._free_rows
        handlers = self._handlers
        try:
            while times:
                time = heappop(times)
                bucket = buckets.pop(time)
                self._now = time
                self._active = bucket
                index = 0
                try:
                    # ``index`` counts the entries taken: the event count,
                    # and the requeue point below
                    for entry in bucket:
                        index += 1
                        if type(entry) is not int:
                            entry()
                            continue
                        cycles = row_cycles[entry]
                        if cycles < 0:
                            arg = row_arg[entry]
                            row_arg[entry] = None
                            free.append(entry)
                            handlers[row_op[entry]](arg)
                            continue
                        # pending deferral: re-queue this same row
                        row_cycles[entry] = _CONSUMED
                        if cycles == 0:
                            bucket.append(entry)
                            continue
                        target = time + cycles
                        nxt = buckets.get(target)
                        if nxt is None:
                            buckets[target] = [entry]
                            heappush(times, target)
                        else:
                            nxt.append(entry)
                finally:
                    processed += index
                    self._active = None
                    if index < len(bucket):
                        # an event raised: requeue the unprocessed tail —
                        # callables and rows alike — so a later run()
                        # resumes in order.
                        buckets[time] = bucket[index:]
                        heappush(times, time)
        finally:
            self._running = False
            self._active = None
            self._events_processed += processed
        return self._now

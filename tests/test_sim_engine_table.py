"""Unit coverage of the compiled table lane's event kernel.

The table kernel (``engine="table"``) compiles ``_StageRuntime``'s per-job
lifecycle into integer transition tables (:mod:`repro.sim.system_table`)
dispatched through :class:`~repro.sim.engine_table.TableEngine`'s opcode
lane.  End-to-end bit identity against the object kernel lives in
``tests/test_sim_kernel_equivalence.py``; this file tests the kernel
alone:

* opcode scheduling/deferral semantics and FIFO interleaving with
  callables;
* the exception-safe tail requeue and non-re-entrancy;
* row storage: free-list recycling and post-run :meth:`TableEngine.reset`;
* the object primitives (``Server``/``CreditStore``) running unchanged;
* a run that drains with unfinished stages raising on either engine;
* the communication fusions: the event count they save on real mappings,
  and each fusion rule at the boundary where it must split or step aside;
* the ``engine`` argument: two registered engines, everything else
  rejected by ``simulate``/``SystemSimulator`` (before any fast-forward
  probe), and no engine option at the scenario layer.
"""

import dataclasses
import json
from collections import Counter

import pytest

from repro.sim import CreditStore, Engine, Server, result_mismatches, simulate
from repro.sim.engine import SimulationError
from repro.sim.engine_table import TableEngine
from repro.sim.system import SIMULATION_ENGINES, SystemSimulator
from repro.sim.system_table import (
    OP_CHUNK_LANDED,
    OP_HBM_ARRIVE,
    OP_NOC_BURST,
    OP_NOC_START,
)
from repro.sim.workload import DataFlow, StageCost, StageDescriptor, Workload

from test_sim_fast_forward import ARCH64, _chain, _zoo_workload


def _engine(log):
    """A table engine whose opcode 0 appends its argument to ``log``."""
    engine = TableEngine()
    engine.set_handlers((lambda arg: log.append(arg),))
    return engine


# --------------------------------------------------------------------------- #
# TableEngine: the opcode lane
# --------------------------------------------------------------------------- #
class TestTableEngine:
    def test_sched_op_dispatches_through_the_jump_table(self):
        log = []
        engine = _engine(log)
        engine.sched_op(5, 0, "b")
        engine.sched_op(2, 0, "a")
        engine.sched_op(5, 0, "c")
        assert engine.run() == 5
        assert log == ["a", "b", "c"]
        assert engine.events_processed == 3

    def test_op_rows_interleave_with_callables_in_fifo_order(self):
        log = []
        engine = _engine(log)
        engine.at(3, lambda: log.append("cb1"))
        engine.sched_op(3, 0, "op")
        engine.at(3, lambda: log.append("cb2"))
        engine.run()
        assert log == ["cb1", "op", "cb2"]

    def test_defer_op_requeues_at_dispatch_time(self):
        # the deferral is two events: the row dispatches at time 2 and
        # re-queues itself into bucket 5, landing *after* the callable
        # that was already scheduled there.
        log = []
        engine = _engine(log)
        engine.at(5, lambda: log.append("resident"))
        engine.defer_op(2, 3, 0, "deferred")
        engine.run()
        assert log == ["resident", "deferred"]
        assert engine.events_processed == 3  # callable + row twice

    def test_defer_op_equivalent_to_at_plus_after(self):
        """defer_op(t, c, op) fires at t + c, like at(t, after(c, cb))."""
        table = TableEngine()
        obj = Engine()
        seen_table, seen_obj = [], []
        table.set_handlers((lambda arg: seen_table.append(table.now),))
        table.defer_op(10, 7, 0, None)
        obj.at(10, lambda: obj.after(7, lambda: seen_obj.append(obj.now)))
        table.run()
        obj.run()
        assert seen_table == seen_obj == [17]

    def test_zero_cycle_deferral_appends_to_the_active_bucket_tail(self):
        log = []
        engine = _engine(log)
        engine.defer_op(0, 0, 0, "deferred")
        engine.at(0, lambda: log.append("same-bucket"))
        engine.run()
        assert log == ["same-bucket", "deferred"]

    def test_zero_heap_cascade_from_op_handler(self):
        """A handler can chain after(0) continuations, all at one t."""
        order = []
        engine = TableEngine()

        def chained(arg):
            order.append("chained")
            engine.after(0, lambda: order.append("chained-again"))

        engine.set_handlers((chained,))
        engine.defer_op(3, 0, 0, None)
        engine.at(3, lambda: order.append("peer"))
        engine.run()
        # the zero-cycle row re-queues behind the already-queued peer, then
        # its handler's continuation joins the tail of the same batch
        assert order == ["peer", "chained", "chained-again"]
        assert engine.now == 3

    def test_scheduling_in_the_past_and_negative_deferrals_raise(self):
        engine = _engine([])
        engine.sched_op(3, 0, None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.sched_op(1, 0, None)
        with pytest.raises(SimulationError):
            engine.defer_op(1, 2, 0, None)
        with pytest.raises(SimulationError):
            engine.defer_op(5, -1, 0, None)

    def test_deferred_row_counts_as_one_event_per_dispatch(self):
        """A deferral is two dispatches of one row: at t, then at t + c."""
        log = []
        engine = _engine(log)
        engine.defer_op(2, 5, 0, "row")
        engine.run()
        assert log == ["row"]
        assert engine.events_processed == 2
        assert engine.now == 7

    def test_zero_cycle_deferral_lands_in_the_same_cycle(self):
        seen = []
        engine = TableEngine()
        engine.set_handlers((lambda arg: seen.append(engine.now),))
        engine.defer_op(4, 0, 0, None)
        engine.at(9, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [4, 9]
        assert engine.events_processed == 3

    def test_handler_exception_requeues_the_unprocessed_tail(self):
        log = []
        engine = TableEngine()

        def boom(arg):
            raise RuntimeError(arg)

        engine.set_handlers((lambda arg: log.append(arg), boom))
        engine.sched_op(1, 1, "kaboom")
        engine.sched_op(1, 0, "survivor")
        with pytest.raises(RuntimeError, match="kaboom"):
            engine.run()
        engine.run()
        assert log == ["survivor"]

    def test_callable_exception_requeues_rows_in_order(self):
        """Rows re-queued behind a failing callable resume in FIFO order."""
        log = []
        engine = _engine(log)

        def boom():
            raise RuntimeError("boom")

        engine.defer_op(7, 0, 0, "r1")
        engine.defer_op(7, 0, 0, "r2")
        engine.at(7, lambda: log.append("c1"))
        engine.at(7, boom)
        engine.at(9, lambda: log.append("late"))
        with pytest.raises(RuntimeError, match="boom"):
            engine.run()
        # both zero-cycle rows re-queued themselves behind the failed
        # callable: they are the unprocessed tail of the t=7 batch
        assert log == ["c1"]
        assert engine.now == 7
        assert not engine.empty()
        engine.run()
        assert log == ["c1", "r1", "r2", "late"]
        assert engine.now == 9

    def test_back_to_back_runs_keep_consistent_clock(self):
        log = []
        engine = _engine(log)
        engine.defer_op(3, 4, 0, "first")
        assert engine.run() == 7
        assert engine.run() == 7  # drained: no clock move
        # a deferral scheduled between runs counts from the current clock
        engine.defer_op(engine.now, 5, 0, "second")
        assert engine.run() == 12
        assert log == ["first", "second"]
        assert engine.events_processed == 4

    def test_reset_with_pending_events_raises(self):
        """A reset must never orphan a live row index sitting in a bucket."""
        engine = _engine([])
        engine.sched_op(9, 0, None)
        with pytest.raises(SimulationError, match="pending"):
            engine.reset()
        engine.run()
        engine.reset()  # drained: now legal

    def test_reset_refused_until_a_failed_run_is_drained(self):
        log = []
        engine = TableEngine()

        def boom(arg):
            raise RuntimeError(arg)

        engine.set_handlers((lambda arg: log.append(arg), boom))
        engine.sched_op(2, 1, "kaboom")
        engine.defer_op(2, 3, 0, "tail")
        with pytest.raises(RuntimeError, match="kaboom"):
            engine.run()
        # the requeued tail still holds a live row: compaction must wait
        with pytest.raises(SimulationError, match="pending"):
            engine.reset()
        assert engine.run() == 5
        assert log == ["tail"]
        engine.reset()


# --------------------------------------------------------------------------- #
# Re-entrant runs
# --------------------------------------------------------------------------- #
class TestReentrantRuns:
    def test_reentrant_run_raises(self):
        engine = TableEngine()
        errors = []

        def reenter(arg):
            try:
                engine.run()
            except SimulationError as error:
                errors.append(str(error))

        engine.set_handlers((reenter,))
        engine.defer_op(1, 0, 0, None)
        engine.run()
        assert len(errors) == 1
        assert "re-entrant" in errors[0]
        engine.at(2, lambda: None)
        assert engine.run() == 2


# --------------------------------------------------------------------------- #
# Row storage
# --------------------------------------------------------------------------- #
class TestRowStorage:
    def test_free_list_recycles_rows(self):
        """Sequential rows reuse one storage slot — the table stays dense."""
        engine = _engine([])
        for start in range(0, 50, 2):
            engine.defer_op(start, 1, 0, None)
            engine.run()
        assert len(engine._row_op) == 1
        assert engine._free_rows == [0]

    def test_reset_releases_row_storage(self):
        """Post-run compaction drops the peak-size columns and free list."""
        log = []
        engine = _engine(log)
        for start in range(8):
            engine.defer_op(start, 1, 0, start)
        engine.run()
        assert len(engine._row_op) > 0 and engine._free_rows
        engine.reset()
        assert engine._row_op == []
        assert engine._row_cycles == []
        assert engine._row_arg == []
        assert engine._free_rows == []
        # the engine stays usable after compaction
        engine.defer_op(20, 2, 0, "after-reset")
        engine.run()
        assert log == list(range(8)) + ["after-reset"]

    def test_reset_refuses_reentrant_call(self):
        engine = TableEngine()
        errors = []

        def from_inside():
            try:
                engine.reset()
            except SimulationError as error:
                errors.append(str(error))

        engine.at(1, from_inside)
        engine.run()
        assert errors and "inside run()" in errors[0]

    def test_simulator_run_compacts_a_drained_engine(self):
        """SystemSimulator.run() resets the row storage after the batch
        loop drains, so long-lived workers do not retain peak-size columns
        between scenarios."""
        simulator = SystemSimulator(ARCH64, _chain(n_jobs=8), engine="table")
        simulator.run()
        assert simulator.engine._row_op == []
        assert simulator.engine._free_rows == []


class TestDropIn:
    def test_object_primitives_run_unchanged(self):
        """Server and CreditStore work on TableEngine exactly as on Engine."""
        engine = TableEngine()
        server = Server(engine, "s", capacity=1)
        store = CreditStore(engine, "c", initial=1)
        done = []
        store.acquire(lambda: server.submit(10, lambda: done.append(engine.now)))
        store.acquire(lambda: server.submit(10, lambda: done.append(engine.now)))
        engine.at(5, store.release)
        engine.run()
        # second job is granted at t=5, queues behind the first (busy until
        # t=10) and serves 10 cycles
        assert done == [10, 20]
        assert server.jobs_served == 2

    def test_full_run_matches_object_engine(self):
        """The same callable schedule runs identically on both engines."""

        def drive(engine):
            trace = []

            def outer(tag):
                trace.append((engine.now, tag))
                engine.after(0, lambda: trace.append((engine.now, f"{tag}-0")))
                engine.after(3, lambda: trace.append((engine.now, f"{tag}-3")))

            engine.at(100, lambda: trace.append((engine.now, "late")))
            for time, tag in ((5, "a"), (5, "b"), (8, "c"), (2, "d")):
                engine.at(time, lambda t=tag: outer(t))
            final = engine.run()
            return trace, final, engine.events_processed

        assert drive(TableEngine()) == drive(Engine())

    def test_uses_slots(self):
        assert not hasattr(TableEngine(), "__dict__")


# --------------------------------------------------------------------------- #
# The engine axis: two entry points, two values
# --------------------------------------------------------------------------- #
class TestEngineAxis:
    def test_table_is_a_registered_engine(self):
        assert SIMULATION_ENGINES == ("python", "table")

    def test_unknown_engine_rejected(self):
        workload = _chain(n_jobs=4)
        # "array" names the retired array-native kernel: bad input now
        for engine in ("compiled", "array"):
            match = rf"unknown simulation engine '{engine}'.*'python', 'table'"
            with pytest.raises(ValueError, match=match):
                simulate(ARCH64, workload, engine=engine)
            with pytest.raises(ValueError, match=match):
                SystemSimulator(ARCH64, workload, engine=engine)

    def test_fast_forward_rejects_the_retired_engine(self):
        with pytest.raises(ValueError, match=r"'array'.*'python', 'table'"):
            simulate(ARCH64, _chain(n_jobs=64), fast_forward=True, engine="array")

    def test_unknown_engine_rejected_before_the_fast_forward_probe(self):
        """The probe always runs the table lane, so only the up-front check
        stands between a bad name and an engaged fast-forward."""
        workload = _chain(n_jobs=96, replication=2)
        assert simulate(ARCH64, workload, fast_forward=True).fast_forwarded
        with pytest.raises(ValueError, match="unknown simulation engine 'bogus'"):
            simulate(ARCH64, workload, engine="bogus", fast_forward=True)

    def test_cli_engine_option_is_rejected(self, tmp_path, capsys):
        from repro.scenarios.cli import main as cli_main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "no-engine", "base": {"model": "tiny_cnn"}}))
        with pytest.raises(SystemExit) as exit_info:
            cli_main([str(spec), "--engine", "python", "--no-store"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_spec_file_engine_field_is_rejected(self, tmp_path, capsys):
        from repro.scenarios.cli import main as cli_main

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {"name": "no-engine", "base": {"model": "tiny_cnn", "engine": "python"}}
            )
        )
        assert cli_main([str(spec), "--no-store"]) == 2
        error = capsys.readouterr().err
        assert "unknown scenario field(s) in [base]: engine" in error


# --------------------------------------------------------------------------- #
# Incomplete runs
# --------------------------------------------------------------------------- #
def _dangling_workload():
    """Stage 1 waits on stage 0, which never sends it anything."""
    cost = StageCost(analog_cycles_per_job=10, analog_macs_per_job=1)
    source = StageDescriptor(
        stage_id=0,
        name="source",
        analog_replicas=((0,),),
        cost=cost,
        inputs=(DataFlow("hbm", 64, label="in"),),
        outputs=(DataFlow("hbm", 64, label="out"),),
    )
    starved = StageDescriptor(
        stage_id=1,
        name="starved",
        analog_replicas=((1,),),
        cost=cost,
        inputs=(DataFlow("stage", 64, stage_id=0),),
        outputs=(DataFlow("hbm", 64, label="out"),),
    )
    return Workload("dangling", [source, starved], n_jobs=4, batch_size=4,
                    tiles_per_image=1)


class TestIncompleteRuns:
    @pytest.mark.parametrize("engine", SIMULATION_ENGINES)
    def test_incomplete_run_raises(self, engine):
        """A run that drains with unfinished stages is always an error."""
        simulator = SystemSimulator(ARCH64, _dangling_workload(), engine=engine)
        with pytest.raises(SimulationError, match=r"incomplete stages: \{1: 0\}"):
            simulator.run()


# --------------------------------------------------------------------------- #
# Communication fusions: fewer rows, same answers
# --------------------------------------------------------------------------- #
#: ``events_processed`` of the table lane before the communication chain
#: was fused (one row per chunk for the DMA hand-off, the HBM join's two
#: arrivals and every landing): resnet18 3x64x64 on 256 clusters, batch
#: 64, contention on.
UNFUSED_EVENTS = {"naive": 38144, "final": 34290}


def _record_rows(monkeypatch):
    """Record ``(op, arg)`` of every opcode row scheduled from here on."""
    rows = []
    sched_op = TableEngine.sched_op
    defer_op = TableEngine.defer_op

    def recording_sched_op(self, time, op, arg):
        rows.append((op, arg))
        sched_op(self, time, op, arg)

    def recording_defer_op(self, time, cycles, op, arg):
        rows.append((op, arg))
        defer_op(self, time, cycles, op, arg)

    monkeypatch.setattr(TableEngine, "sched_op", recording_sched_op)
    monkeypatch.setattr(TableEngine, "defer_op", recording_defer_op)
    return rows


def _two_stage(n_chunks, n_jobs=4, n_bytes=4096):
    """HBM -> stage 0 -> stage 1 -> HBM, ``n_bytes`` per job on every flow,
    each stage-to-stage and write flow cut into ``n_chunks``."""
    cost = StageCost(analog_cycles_per_job=50, analog_macs_per_job=1)
    first = StageDescriptor(
        stage_id=0,
        name="first",
        analog_replicas=((0,),),
        cost=cost,
        inputs=(DataFlow("hbm", n_bytes, label="in", transfers_per_job=n_chunks),),
        outputs=(DataFlow("stage", n_bytes, stage_id=1, transfers_per_job=n_chunks),),
    )
    second = StageDescriptor(
        stage_id=1,
        name="second",
        analog_replicas=((9,),),
        cost=cost,
        inputs=(DataFlow("stage", n_bytes, stage_id=0, transfers_per_job=n_chunks),),
        outputs=(DataFlow("hbm", n_bytes, label="out", transfers_per_job=n_chunks),),
    )
    return Workload("two-stage", [first, second], n_jobs=n_jobs, batch_size=n_jobs,
                    tiles_per_image=1)


def _run_both(arch, workload):
    """The table lane's result, asserted identical to the object kernel's."""
    table = simulate(arch, workload, engine="table")
    assert result_mismatches(simulate(arch, workload, engine="python"), table) == []
    return table


class TestCommunicationFusion:
    @pytest.mark.parametrize("level", sorted(UNFUSED_EVENTS))
    def test_fused_lane_runs_at_most_six_tenths_of_the_unfused_events(self, level):
        arch, workload = _zoo_workload("resnet18", (3, 64, 64), level, 64, 256, None, 256)
        simulator = SystemSimulator(arch, workload)
        simulator.run()
        assert simulator.engine.events_processed <= 0.6 * UNFUSED_EVENTS[level]

    def test_burst_row_splits_when_the_dma_channels_run_out(self, monkeypatch):
        """Four chunks on two DMA channels: the two that find a free channel
        share one burst row, the other two wait for a channel each."""
        arch = dataclasses.replace(
            ARCH64, cluster=dataclasses.replace(ARCH64.cluster, dma_channels=2)
        )
        rows = _record_rows(monkeypatch)
        _run_both(arch, _two_stage(n_chunks=4, n_jobs=1))
        issued = [(op, arg) for op, arg in rows if op in (OP_NOC_BURST, OP_NOC_START)]
        # stage 0 -> 1, then stage 1 -> HBM, each issued once: the burst row
        # comes first, since a deferred chunk may join the burst's bucket
        for flow_rows in (issued[:3], issued[3:]):
            (burst_op, burst_arg), *deferred = flow_rows
            assert burst_op == OP_NOC_BURST and burst_arg % 2 + 1 == 2
            assert [op for op, __ in deferred] == [OP_NOC_START] * 2
            assert {arg for __, arg in deferred} == {burst_arg // 2}
        assert len(issued) == 6

    @pytest.mark.parametrize(
        "hbm_width,n_bytes,barriers",
        [(64, 4096, 0), (65, 4095, 2 * 4)],
        ids=["channel-drains-with-links", "links-drain-one-cycle-later"],
    )
    def test_hbm_join_keeps_the_barrier_only_when_the_links_drain_last(
        self, monkeypatch, hbm_width, n_bytes, barriers
    ):
        """With no access latency, an HBM channel as wide as the 64-byte
        links finishes each job in the cycle its links drain: the channel
        arrives last and the links' arrival row is dropped.  One byte wider,
        it finishes one cycle before the links, whose arrival row is then
        the join's last and stays — one per HBM read and write, each job."""
        arch = dataclasses.replace(
            ARCH64,
            hbm=dataclasses.replace(
                ARCH64.hbm, access_latency_cycles=0, data_width_bytes=hbm_width
            ),
        )
        rows = _record_rows(monkeypatch)
        _run_both(arch, _two_stage(n_chunks=1, n_bytes=n_bytes))
        assert sum(op == OP_HBM_ARRIVE for op, __ in rows) == barriers

    def test_fold_refused_for_a_destination_not_yet_touched(self, monkeypatch):
        """Job 0's chunks head for cluster 9 before anything touched it, so
        each of them lands (the first landing puts cluster 9 in
        ``tracer.clusters``); later jobs land only their last chunk."""
        workload = _two_stage(n_chunks=3)
        rows = _record_rows(monkeypatch)
        simulator = SystemSimulator(ARCH64, workload)
        result = simulator.run()
        python = simulate(ARCH64, workload, engine="python")
        assert result_mismatches(python, result) == []
        nj = workload.n_jobs
        landed = Counter(
            (simulator._table.groups[arg // nj].flow.fid, arg % nj)
            for op, arg in rows
            if op == OP_CHUNK_LANDED
        )
        direct, write = simulator._table.flows
        assert direct.fold and write.fold
        assert [landed[direct.fid, job] for job in range(nj)] == [3, 1, 1, 1]
        # the HBM write has no destination cluster: it always folds
        assert [landed[write.fid, job] for job in range(nj)] == [1] * nj

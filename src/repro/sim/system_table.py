"""Compiled state-machine lane of the system simulator (``engine="table"``).

:class:`TableProgram` compiles a :class:`~repro.sim.workload.Workload`
once, before the first event, into integer transition state consumed by
:class:`~repro.sim.engine_table.TableEngine` opcode rows:

* each stage becomes a :class:`_CompiledStage` — flat per-job vectors
  (``job_start``, ``out_pending``), dense credit/occupancy counters
  (analog/digital busy counts, per-input credits, output slots) and
  integer waiter queues — replacing the object kernel's per-stage
  ``Server``/``CreditStore``/``Barrier`` web and all its per-job
  closures;
* each data flow becomes a :class:`_Flow` with precompiled chunk
  :class:`_Group` records (size, count, DMA duration, serialization,
  HBM extra, delivery attribution — every per-transfer quantity the
  object kernel recomputes or memo-looks-up per event);
* NoC links (busy-until, busy cycles) and HBM channels (busy flag,
  FIFO queue, busy-until) become dense vectors updated by indexed
  arithmetic inside the opcode handlers.

The **legality rule** for compiling a step: a resource or lifecycle step
may be table-compiled only when its *successor and timing are fully
determined at schedule time* from integer state.  A capacity-1 FIFO link
whose job durations are fixed at submission is exactly a busy-until
scalar (a transfer drains at ``max(now, busy_until) + serialization``),
and a multi-channel DMA engine is a heap of per-channel free-at cycles
(a burst starts on the earliest-free channel); server finishes, credit
grants and their FIFO cascades, chunk fan-outs and HBM round-robin picks
are all deterministic given event order.  Steps whose continuation is an
arbitrary closure stay callbacks and ride the engine's callback lane
unchanged: the external HBM feeds (their fetch → grant → deliver
recursion is re-entrant through the credit queue, so the credit waiter
queues hold *either* packed ints or callables).

Equivalence contract: every row with an observable effect lands at the
same simulated time, in the same bucket insertion position, as the
object kernel's equivalent event — the compiled handlers replicate its
synchronous callback chains (server ``on_done``-then-dequeue order,
credit FIFO grants, barrier arrivals, the ``written``-then-relay order
of storage flows) statement for statement.  A row may be omitted only
when a later row of the same flow dominates its effects.  Three
compile-time fusions of the communication chain use that freedom:

* **burst DMA row** — the chunks of a group that find a free DMA channel
  at issue all enter the NoC at ``now + dma_dur``; their rows would sit
  adjacent in one bucket (handlers only append), so one
  ``OP_NOC_BURST`` row runs the ``noc_start`` body once per chunk;
* **barrier-free HBM join** — a channel's finish is known at submit
  (``max(now, busy_until) + cycles``); when it is no earlier than the
  links' drain, the channel's completion row is the join's last arrival
  and the links' ``OP_HBM_ARRIVE`` row, a bare count-down, is dropped;
* **last-chunk-only landing** — under contention the chunks of one
  (flow, job) share a FIFO route (and, for HBM routes, the single
  channel), so a chunk that is not the last to enter the NoC lands
  strictly before the last one: it adds its delivery cycles and counts
  down at NoC entry and schedules no landing.  It does so only when its
  destination is already in the first-touch order.

Tracer state that the fast-forward prober must see mid-run (aggregate
counters, live :class:`~repro.sim.tracer.StageActivity`, stage
completions) stays on the tracer; per-cluster and per-link activity
accumulate in dense arrays and materialise into the tracer in
first-touch order at :meth:`finalize`
(:meth:`TableProgram.snapshot_activity` reads the dense form mid-run for
the fast-forward probe).  Bit-identity against the object kernel is
asserted by ``tests/test_sim_kernel_equivalence.py``.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Dict, List, Optional, Tuple

from .engine import SimulationError
from .engine_table import TableEngine
from .tracer import ClusterActivity
from .workload import ENDPOINT_HBM, ENDPOINT_STAGE, ENDPOINT_STORAGE

#: opcodes (jump-table indices, in the order :meth:`TableProgram.build`
#: registers the handlers).
OP_ANALOG_DONE = 0  # arg: stage_slot * n_jobs + job
OP_DIGITAL_DONE = 1  # arg: stage_slot * n_jobs + job
OP_NOC_START = 2  # arg: group_id * n_jobs + job (one chunk's DMA done)
OP_CHUNK_LANDED = 3  # arg: group_id * n_jobs + job
OP_FLOW_NULL = 4  # arg: flow_id * n_jobs + job (zero-byte send)
OP_HBM_ARRIVE = 5  # arg: [2, hop, target] cell (links drain after the channel)
OP_CHAN_DONE = 6  # arg: (channel, [pending, hop, target] cell or None)
OP_NOC_BURST = 7  # arg: (group_id * n_jobs + job) * dma_channels + count - 1

#: flow kinds.
F_DIRECT = 0  # producer stage -> consumer stage (credit-gated)
F_WRITE = 1  # producer stage -> HBM / storage cluster
F_READ = 2  # HBM / storage cluster -> consumer stage (relay prefetch)
F_INTRA = 3  # analog replica -> first digital cluster (partial sums)


class _Plan:
    """Dense route constants for one (src, dst) endpoint pair."""

    __slots__ = (
        "lids",
        "n_hops",
        "hop",
        "min_width",
        "involves_hbm",
        "touched",
        "cycles_memo",
    )

    def __init__(
        self,
        lids: Tuple[int, ...],
        n_hops: int,
        hop: int,
        min_width: int,
        involves_hbm: bool,
    ):
        self.lids = lids
        self.n_hops = n_hops
        self.hop = hop
        self.min_width = min_width
        self.involves_hbm = involves_hbm
        #: whether every link of this plan is already in the first-touch
        #: order (short-circuits the per-transfer seen check).
        self.touched = False
        #: n_bytes -> (serialization, hbm_extra) for the callback-fallback
        #: transfer path (compiled groups precompute these instead).
        self.cycles_memo: Dict[int, Tuple[int, int]] = {}


class _Group:
    """One equal-size chunk group of a flow: all per-burst constants."""

    __slots__ = (
        "gid",
        "flow",
        "size",
        "count",
        "dma_dur",
        "comm_cycles",
        "ser",
        "hbm_extra",
        "dst",
        "plan",
        "byte_hops",
        "uncont_lat",
        "chan_cycles",
    )

    def __init__(self, gid, flow, size, count, dma_dur, comm_cycles, ser, hbm_extra, dst, plan):
        self.gid = gid
        self.flow = flow
        self.size = size
        self.count = count
        self.dma_dur = dma_dur
        self.comm_cycles = comm_cycles
        self.ser = ser
        self.hbm_extra = hbm_extra
        self.dst = dst
        self.plan = plan  # None for local (same-cluster) handoffs
        # burst constants precomputed off the hot path
        self.byte_hops = size * plan.n_hops if plan is not None else 0
        self.uncont_lat = plan.hop + ser + hbm_extra if plan is not None else 0
        self.chan_cycles = ser + hbm_extra


class _Flow:
    """One compiled data flow (an edge of the stage data-flow graph)."""

    __slots__ = (
        "fid",
        "kind",
        "src",
        "producer",
        "consumer",
        "flow_index",
        "relay",
        "groups",
        "total_chunks",
        "zero",
        "pending",
        "fold",
        "unstarted",
    )

    def __init__(self, fid, kind, src, producer, consumer, flow_index):
        self.fid = fid
        self.kind = kind
        self.src = src
        self.producer = producer
        self.consumer = consumer
        self.flow_index = flow_index
        self.relay: Optional["_Flow"] = None  # F_WRITE -> its F_READ
        self.groups: Tuple[_Group, ...] = ()
        self.total_chunks = 0
        self.zero = False
        #: per-job count of chunks still in flight.
        self.pending: List[int] = []
        #: whether chunks that are not the last to enter the NoC may skip
        #: their landing row (the last-chunk-only rule, see _op_noc_start).
        self.fold = False
        #: per-job count of chunks that have not entered the NoC yet
        #: (maintained only when ``fold``).
        self.unstarted: List[int] = []


class _CompiledStage:
    """Flat per-stage state: counters, waiter queues, per-job vectors."""

    __slots__ = (
        "slot",
        "sid",
        "desc",
        "activity",
        "io_cluster",
        "is_analog",
        "analog_d",
        "analog_record",
        "repl",
        "replicas",
        "digital_d",
        "dslots",
        "digital_groups",
        "an_busy",
        "an_wait",
        "dg_busy",
        "dg_wait",
        "n_inputs",
        "in_credits",
        "in_wait",
        "delivered",
        "out_credits",
        "out_wait",
        "out_flows",
        "intra_flows",
        "next_job",
        "jobs_completed",
        "job_start",
        "out_pending",
        "arrival_gate",
    )


class TableProgram:
    """Compiles one workload run into table-dispatched integer state."""

    def __init__(self, sim) -> None:
        engine = sim.engine
        if not isinstance(engine, TableEngine):
            raise SimulationError("TableProgram requires a TableEngine")
        self.sim = sim
        self.engine: TableEngine = engine
        self.tracer = sim.tracer
        self.arch = sim.arch
        self.workload = sim.workload
        self.model_contention = sim.model_contention
        self.topology = sim.arch.topology()
        self._nj = sim.workload.n_jobs
        cluster = sim.arch.cluster
        self._dma_channels = cluster.dma_channels
        self._dma_config = cluster.cores.dma_config_cycles
        self._dma_bw = cluster.dma_bandwidth_bytes_per_cycle
        # program tables
        self.stages: List[_CompiledStage] = []
        self.flows: List[_Flow] = []
        self.groups: List[_Group] = []
        self._by_sid: Dict[int, _CompiledStage] = {}
        # dense cluster activity (materialised into the tracer at finalize)
        n_clusters = sim.arch.n_clusters
        self._cl_analog = [0] * n_clusters
        self._cl_digital = [0] * n_clusters
        self._cl_comm = [0] * n_clusters
        self._cl_jobs = [0] * n_clusters
        self._cl_last = [0] * n_clusters
        self._cl_seen = bytearray(n_clusters)
        self._cl_order: List[int] = []
        self._mk = 0
        # dense link state (ids assigned in plan-creation route order;
        # first-touch order of actual traffic tracked separately, matching
        # the object kernel's tracer.link_busy insertion order)
        self._link_ids: Dict[str, int] = {}
        self._link_names: List[str] = []
        self._link_until: List[int] = []
        self._link_busy: List[int] = []
        self._link_seen: List[bool] = []
        self._link_order: List[int] = []
        self._plans: Dict[Optional[int], Dict[Optional[int], _Plan]] = {}
        # dense HBM channels (capacity-1 FIFO servers): the busy flag and
        # queue are event-time state the round-robin pick reads; the
        # busy-until cycle is every submitted job's finish, known at submit
        n_chan = sim.arch.hbm.n_channels
        self._chan_busy = [0] * n_chan
        self._chan_queue: List[deque] = [deque() for __ in range(n_chan)]
        self._chan_until = [0] * n_chan
        self._hbm_next = 0
        # per-cluster DMA channel free-at heaps
        self._dma_slots: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def build(self) -> None:
        """Compile stages, flows and feeds; registers engine handlers.

        Stage registration, relay resolution and external-feed kickoff
        happen in the exact order of ``SystemSimulator._build`` so that
        the first events (feed fetches) are scheduled identically.
        """
        workload = self.workload
        sim = self.sim
        nj = self._nj
        for slot, desc in enumerate(workload.stages):
            st = _CompiledStage()
            st.slot = slot
            st.sid = desc.stage_id
            st.desc = desc
            st.io_cluster = desc.io_cluster
            st.is_analog = desc.is_analog
            st.analog_d = desc.cost.analog_cycles_per_job
            st.analog_record = st.analog_d if st.is_analog else 0
            st.repl = desc.replication
            st.replicas = desc.analog_replicas
            st.digital_d = desc.cost.digital_cycles_per_job
            st.dslots = desc.digital_slots
            st.digital_groups = self._partition_digital(desc)
            st.an_busy = 0
            st.an_wait = deque()
            st.dg_busy = 0
            st.dg_wait = deque()
            st.n_inputs = len(desc.inputs)
            parallelism = max(desc.replication, desc.digital_slots)
            st.in_credits = [
                (flow.buffer_depth if flow.buffer_depth is not None else sim.buffer_depth)
                * parallelism
                for flow in desc.inputs
            ]
            st.in_wait = [deque() for __ in desc.inputs]
            st.delivered = [0] * st.n_inputs
            st.out_credits = sim.buffer_depth * parallelism
            st.out_wait = deque()
            st.next_job = 0
            st.jobs_completed = 0
            st.job_start = [0] * nj
            st.out_pending = [0] * nj
            st.out_flows = ()
            st.intra_flows = None
            # arrival gate for source stages (mirrors _StageRuntime)
            st.arrival_gate = (
                workload.arrival_cycles
                if workload.arrival_cycles and not desc.inputs
                else None
            )
            self.stages.append(st)
            self._by_sid[desc.stage_id] = st
            st.activity = self.tracer.stage(
                desc.stage_id,
                desc.name,
                replication=desc.replication,
                digital_slots=desc.digital_slots,
            )
        # relay targets: (kind, label) -> consuming stage input
        relay: Dict[Tuple[str, str], Tuple[_CompiledStage, int]] = {}
        for st in self.stages:
            for flow_index, flow in enumerate(st.desc.inputs):
                if flow.kind in (ENDPOINT_HBM, ENDPOINT_STORAGE):
                    relay[(flow.kind, flow.label)] = (st, flow_index)
        # output flows (consumers must all exist first)
        for st in self.stages:
            out: List[_Flow] = []
            for flow in st.desc.outputs:
                if flow.kind == ENDPOINT_STAGE:
                    consumer = self._by_sid[flow.stage_id]
                    flow_index = self._consumer_flow_index(consumer, st.sid)
                    out.append(
                        self._make_flow(
                            F_DIRECT,
                            st.io_cluster,
                            consumer.io_cluster,
                            flow.bytes_per_job,
                            flow.transfers_per_job,
                            producer=st,
                            consumer=consumer,
                            flow_index=flow_index,
                        )
                    )
                    continue
                storage = flow.storage_cluster if flow.kind == ENDPOINT_STORAGE else None
                write = self._make_flow(
                    F_WRITE,
                    st.io_cluster,
                    storage,
                    flow.bytes_per_job,
                    flow.transfers_per_job,
                    producer=st,
                )
                target = relay.get((flow.kind, flow.label))
                if target is not None:
                    consumer, flow_index = target
                    write.relay = self._make_flow(
                        F_READ,
                        storage,
                        consumer.io_cluster,
                        flow.bytes_per_job,
                        flow.transfers_per_job,
                        consumer=consumer,
                        flow_index=flow_index,
                    )
                out.append(write)
            st.out_flows = tuple(out)
            intra = st.desc.cost.intra_stage_bytes_per_job
            if st.is_analog and intra > 0 and st.desc.digital_clusters:
                dst = st.desc.digital_clusters[0]
                st.intra_flows = tuple(
                    self._make_flow(
                        F_INTRA,
                        replica[0] if replica else st.io_cluster,
                        dst,
                        intra,
                        1,
                        producer=st,
                    )
                    for replica in st.replicas
                )
        self.engine.set_handlers(
            (
                self._op_analog_done,
                self._op_digital_done,
                self._op_noc_start,
                self._op_chunk_landed,
                self._op_flow_null,
                self._op_hbm_arrive,
                self._op_chan_done,
                self._op_noc_burst,
            )
        )
        # external feeds (network IFM fetched from HBM), in stage order —
        # these schedule the run's first events, identically to _build()
        produced = {
            (flow.kind, flow.label)
            for desc in workload.stages
            for flow in desc.outputs
            if flow.kind in (ENDPOINT_HBM, ENDPOINT_STORAGE)
        }
        for st in self.stages:
            for flow_index, flow in enumerate(st.desc.inputs):
                if flow.kind == ENDPOINT_STAGE:
                    continue
                if (flow.kind, flow.label) in produced:
                    continue
                self._start_feed(st, flow_index, flow.bytes_per_job)

    @staticmethod
    def _partition_digital(desc) -> List[Tuple[int, ...]]:
        clusters = desc.digital_clusters
        slots = desc.digital_slots
        if not clusters:
            return [()] * slots
        groups: List[Tuple[int, ...]] = []
        per_group = max(1, math.ceil(len(clusters) / slots))
        for index in range(slots):
            group = clusters[index * per_group : (index + 1) * per_group]
            groups.append(tuple(group) if group else (clusters[-1],))
        return groups

    @staticmethod
    def _consumer_flow_index(consumer: _CompiledStage, producer_id: int) -> int:
        for index, flow in enumerate(consumer.desc.inputs):
            if flow.kind == ENDPOINT_STAGE and flow.stage_id == producer_id:
                return index
        raise SimulationError(
            f"stage {consumer.sid} has no input flow from stage {producer_id}"
        )

    def _make_flow(
        self,
        kind: int,
        src: Optional[int],
        dst: Optional[int],
        n_bytes: int,
        n_chunks: int,
        producer: Optional[_CompiledStage] = None,
        consumer: Optional[_CompiledStage] = None,
        flow_index: int = 0,
    ) -> _Flow:
        flow = _Flow(len(self.flows), kind, src, producer, consumer, flow_index)
        self.flows.append(flow)
        if n_bytes <= 0:
            flow.zero = True
            return flow
        flow.pending = [0] * self._nj
        # chunk sizes replicate send_chunked's loop exactly (including the
        # 1-byte floor once ``remaining`` runs out); n_chunks <= 1 goes
        # through send_bytes, i.e. one un-floored group
        if n_chunks <= 1:
            grouped: List[Tuple[int, int]] = [(n_bytes, 1)]
            total = 1
        else:
            chunk = -(-n_bytes // n_chunks)
            sizes: List[int] = []
            remaining = n_bytes
            for __ in range(n_chunks):
                size = min(chunk, remaining)
                remaining -= size
                sizes.append(max(1, size))
            grouped = []
            for size in sizes:
                if grouped and grouped[-1][0] == size:
                    grouped[-1] = (size, grouped[-1][1] + 1)
                else:
                    grouped.append((size, 1))
            total = n_chunks
        flow.total_chunks = total
        plan = None if src == dst else self._plan(src, dst)
        hbm = self.arch.hbm
        # last-chunk-only landings need FIFO order from NoC entry to
        # landing: contended links, and at most one HBM channel to queue on
        flow.fold = (
            self.model_contention
            and total > 1
            and (plan is None or not plan.involves_hbm or hbm.n_channels == 1)
        )
        if flow.fold:
            flow.unstarted = [0] * self._nj
        groups: List[_Group] = []
        for size, count in grouped:
            ser = 0
            extra = 0
            if plan is not None:
                ser = -(-size // plan.min_width)
                if plan.involves_hbm:
                    extra = hbm.service_cycles(size) - ser
            dma_dur = 0
            if src is not None:
                dma_dur = self._dma_config + math.ceil(size / self._dma_bw)
            comm = 0
            if dst is not None:
                comm = math.ceil(size / self._dma_bw)
            group = _Group(
                len(self.groups), flow, size, count, dma_dur, comm, ser, extra, dst, plan
            )
            self.groups.append(group)
            groups.append(group)
        flow.groups = tuple(groups)
        return flow

    def _plan(self, src: Optional[int], dst: Optional[int]) -> _Plan:
        by_dst = self._plans.get(src)
        if by_dst is None:
            by_dst = self._plans[src] = {}
        plan = by_dst.get(dst)
        if plan is not None:
            return plan
        topology = self.topology
        if src is None:
            route = topology.route_from_hbm(dst)  # type: ignore[arg-type]
            involves_hbm = True
        elif dst is None:
            route = topology.route_to_hbm(src)
            involves_hbm = True
        else:
            route = topology.route(src, dst)
            involves_hbm = False
        link_ids = self._link_ids
        ids: List[int] = []
        for name in route.links:
            lid = link_ids.get(name)
            if lid is None:
                lid = len(link_ids)
                link_ids[name] = lid
                self._link_names.append(name)
                self._link_until.append(0)
                self._link_busy.append(0)
                self._link_seen.append(False)
            ids.append(lid)
        plan = _Plan(
            tuple(ids),
            route.n_hops,
            route.hop_latency_cycles,
            route.min_width_bytes,
            involves_hbm,
        )
        by_dst[dst] = plan
        return plan

    def _touch_plan(self, plan: _Plan) -> None:
        seen = self._link_seen
        order = self._link_order
        for lid in plan.lids:
            if not seen[lid]:
                seen[lid] = True
                order.append(lid)
        plan.touched = True

    # ------------------------------------------------------------------ #
    # Run control
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Kick off input-less stages (mirrors ``SystemSimulator.run``)."""
        for st in self.stages:
            if not st.desc.inputs:
                self._try_start(st)

    def jobs_completed_by_stage(self) -> Dict[int, int]:
        return {st.sid: st.jobs_completed for st in self.stages}

    def finalize(self) -> None:
        """Materialise the dense activity lanes into the tracer.

        Cluster records and per-link busy cycles are created in
        first-touch order — the same insertion order the object kernel's
        per-event dict updates produce — so downstream dict-order checks
        (``repro.sim.compare``) see identical tracers.
        """
        tracer = self.tracer
        clusters = tracer.clusters
        for cid in self._cl_order:
            clusters[cid] = ClusterActivity(
                cid,
                analog=self._cl_analog[cid],
                digital=self._cl_digital[cid],
                communication=self._cl_comm[cid],
                synchronization=0,
                last_busy_cycle=self._cl_last[cid],
                jobs=self._cl_jobs[cid],
            )
        link_busy = tracer.link_busy
        names = self._link_names
        busy = self._link_busy
        for lid in self._link_order:
            link_busy[names[lid]] += busy[lid]
        if self._mk > tracer.makespan:
            tracer.makespan = self._mk

    def snapshot_activity(self):
        """Mid-run activity snapshot (the fast-forward probe hook).

        Returns ``(counters, clusters, stages, links)``: the aggregate
        traffic counters ``(now, hbm_bytes, noc_bytes, noc_byte_hops,
        local_bytes, n_transfers)``, per-cluster 6-tuples ``(analog,
        digital, communication, synchronization, jobs, last_busy_cycle)``,
        per-stage 7-tuples ``(jobs_completed, analog_busy, digital_busy,
        input_stall, output_stall, first_job_start, last_job_end)`` and a
        per-link busy-cycles dict.  A chunk whose landing is folded into a
        later one counts its delivery cycles at NoC entry, so a mid-run
        snapshot can include delivery of chunks still in flight.
        """
        tracer = self.tracer
        counters = (
            self.engine._now,
            tracer.hbm_bytes,
            tracer.noc_bytes,
            tracer.noc_byte_hops,
            tracer.local_bytes,
            tracer.n_transfers,
        )
        analog = self._cl_analog
        digital = self._cl_digital
        comm = self._cl_comm
        jobs = self._cl_jobs
        last = self._cl_last
        clusters = {
            cid: (analog[cid], digital[cid], comm[cid], 0, jobs[cid], last[cid])
            for cid in self._cl_order
        }
        stages = {
            sid: (
                rec.jobs_completed,
                rec.analog_busy,
                rec.digital_busy,
                rec.input_stall,
                rec.output_stall,
                rec.first_job_start,
                rec.last_job_end,
            )
            for sid, rec in tracer.stages.items()
        }
        names = self._link_names
        busy = self._link_busy
        links = {names[lid]: busy[lid] for lid in self._link_order}
        return counters, clusters, stages, links

    # ------------------------------------------------------------------ #
    # Stage lifecycle (compiled _StageRuntime)
    # ------------------------------------------------------------------ #
    def _try_start(self, st: _CompiledStage) -> None:
        nj = self._nj
        arrivals = st.arrival_gate
        while st.next_job < nj:
            job = st.next_job
            for count in st.delivered:
                if count <= job:
                    return
            if arrivals is not None:
                arrival = arrivals[job]
                if arrival > self.engine._now:
                    # single pending wakeup, same as _StageRuntime._try_start
                    self.engine.at(arrival, lambda: self._try_start(st))
                    return
            st.next_job = job + 1
            # output_slots.acquire(start_job)
            if st.out_credits > 0 and not st.out_wait:
                st.out_credits -= 1
                self._start_job(st, job)
            else:
                st.out_wait.append(job)

    def _start_job(self, st: _CompiledStage, job: int) -> None:
        engine = self.engine
        st.job_start[job] = engine._now
        if st.is_analog:
            # analog Server.submit (capacity = replication)
            if st.an_busy < st.repl and not st.an_wait:
                st.an_busy += 1
                engine.sched_op(
                    engine._now + st.analog_d, OP_ANALOG_DONE, st.slot * self._nj + job
                )
            else:
                st.an_wait.append(job)
        else:
            self._run_digital(st, job)

    def _op_analog_done(self, arg: int) -> None:
        nj = self._nj
        slot = arg // nj
        st = self.stages[slot]
        job = arg - slot * nj
        st.an_busy -= 1
        engine = self.engine
        now = engine._now
        dur = st.analog_d
        replica = st.replicas[job % st.repl]
        if replica:
            cl_analog = self._cl_analog
            cl_jobs = self._cl_jobs
            cl_last = self._cl_last
            seen = self._cl_seen
            for cluster in replica:
                cl_analog[cluster] += dur
                cl_jobs[cluster] += 1
                if now > cl_last[cluster]:
                    cl_last[cluster] = now
                if not seen[cluster]:
                    seen[cluster] = 1
                    self._cl_order.append(cluster)
            if now > self._mk:
                self._mk = now
        intra = st.intra_flows
        if intra is not None:
            self._issue_flow(intra[job % st.repl], job)
        else:
            self._run_digital(st, job)
        # Server._finish: completion first, then start one queued job
        if st.an_wait and st.an_busy < st.repl:
            st.an_busy += 1
            engine.sched_op(now + dur, OP_ANALOG_DONE, arg - job + st.an_wait.popleft())

    def _run_digital(self, st: _CompiledStage, job: int) -> None:
        dur = st.digital_d
        if dur <= 0:
            self._after_compute(st, job, 0)
            return
        # digital Server.submit (capacity = digital_slots)
        if st.dg_busy < st.dslots and not st.dg_wait:
            st.dg_busy += 1
            engine = self.engine
            engine.sched_op(engine._now + dur, OP_DIGITAL_DONE, st.slot * self._nj + job)
        else:
            st.dg_wait.append(job)

    def _op_digital_done(self, arg: int) -> None:
        nj = self._nj
        slot = arg // nj
        st = self.stages[slot]
        job = arg - slot * nj
        st.dg_busy -= 1
        engine = self.engine
        now = engine._now
        dur = st.digital_d
        group = st.digital_groups[job % st.dslots]
        if group:
            cl_digital = self._cl_digital
            cl_last = self._cl_last
            seen = self._cl_seen
            for cluster in group:
                cl_digital[cluster] += dur
                if now > cl_last[cluster]:
                    cl_last[cluster] = now
                if not seen[cluster]:
                    seen[cluster] = 1
                    self._cl_order.append(cluster)
            if now > self._mk:
                self._mk = now
        self._after_compute(st, job, dur)
        if st.dg_wait and st.dg_busy < st.dslots:
            st.dg_busy += 1
            engine.sched_op(now + dur, OP_DIGITAL_DONE, arg - job + st.dg_wait.popleft())

    def _after_compute(self, st: _CompiledStage, job: int, digital_cycles: int) -> None:
        now = self.engine._now
        # record_stage_job on the live StageActivity
        act = st.activity
        act.jobs_completed += 1
        act.analog_busy += st.analog_record
        act.digital_busy += digital_cycles
        start = st.job_start[job]
        if act.first_job_start is None or start < act.first_job_start:
            act.first_job_start = start
        if now > act.last_job_end:
            act.last_job_end = now
        if now > self._mk:
            self._mk = now
        # input credits released: producers may push the next chunk.  The
        # waiter queues hold packed ints (compiled flows) or callables
        # (external-feed grants) — CreditStore.release's FIFO drain.
        nj = self._nj
        in_credits = st.in_credits
        flows = self.flows
        for index in range(st.n_inputs):
            in_credits[index] += 1
            wait = st.in_wait[index]
            while in_credits[index] > 0 and wait:
                waiter = wait.popleft()
                in_credits[index] -= 1
                if type(waiter) is int:
                    fid = waiter // nj
                    self._issue_flow(flows[fid], waiter - fid * nj)
                else:
                    waiter()
        out = st.out_flows
        if not out:
            self._job_done(st, job)
            return
        # Barrier(len(outputs), job_done) + route_output per flow
        st.out_pending[job] = len(out)
        for flow in out:
            if flow.kind == F_DIRECT:
                self._acquire_and_issue(flow, job)
            else:
                self._issue_flow(flow, job)

    def _acquire_and_issue(self, flow: _Flow, job: int) -> None:
        """CreditStore.acquire on the consumer's input buffer, then send."""
        consumer = flow.consumer
        index = flow.flow_index
        credits = consumer.in_credits
        if credits[index] > 0 and not consumer.in_wait[index]:
            credits[index] -= 1
            self._issue_flow(flow, job)
        else:
            consumer.in_wait[index].append(flow.fid * self._nj + job)

    def _job_done(self, st: _CompiledStage, job: int) -> None:
        st.jobs_completed += 1
        # output_slots.release(): FIFO-start queued jobs
        st.out_credits += 1
        wait = st.out_wait
        while st.out_credits > 0 and wait:
            st.out_credits -= 1
            self._start_job(st, wait.popleft())
        self.sim.job_finished(st.sid, job)

    def _output_arrived(self, st: _CompiledStage, job: int) -> None:
        """One output flow of ``job`` delivered (a Barrier.arrive)."""
        remaining = st.out_pending[job] - 1
        st.out_pending[job] = remaining
        if remaining == 0:
            self._job_done(st, job)

    def _complete_flow(self, flow: _Flow, job: int) -> None:
        """All chunks of (flow, job) have landed: run the delivery chain."""
        kind = flow.kind
        if kind == F_DIRECT:
            # consumer.deliver(...) then the producer's barrier arrive
            consumer = flow.consumer
            consumer.delivered[flow.flow_index] += 1
            self._try_start(consumer)
            self._output_arrived(flow.producer, job)
        elif kind == F_INTRA:
            self._run_digital(flow.producer, job)
        elif kind == F_WRITE:
            # written(): the producer's obligation ends at the storage,
            # then the relay read prefetches towards the consumer
            self._output_arrived(flow.producer, job)
            read = flow.relay
            if read is not None:
                self._acquire_and_issue(read, job)
        else:  # F_READ: deliver only (the producer was released at write)
            consumer = flow.consumer
            consumer.delivered[flow.flow_index] += 1
            self._try_start(consumer)

    # ------------------------------------------------------------------ #
    # Data movement (compiled send_chunked / send_bytes)
    # ------------------------------------------------------------------ #
    def _issue_flow(self, flow: _Flow, job: int) -> None:
        engine = self.engine
        nj = self._nj
        if flow.zero:
            # send_bytes(n <= 0): one zero-delay event, no records
            engine.sched_op(engine._now, OP_FLOW_NULL, flow.fid * nj + job)
            return
        flow.pending[job] = flow.total_chunks
        if flow.fold:
            flow.unstarted[job] = flow.total_chunks
        src = flow.src
        if src is None:
            # HBM-sourced: no DMA, chunks enter the NoC synchronously
            for group in flow.groups:
                arg = group.gid * nj + job
                for __ in range(group.count):
                    self._op_noc_start(arg)
            return
        slots = self._dma_slots.get(src)
        if slots is None:
            slots = self._dma_slots[src] = [0] * self._dma_channels
        now = engine._now
        defer_op = engine.defer_op
        heapreplace = heapq.heapreplace
        for group in flow.groups:
            dur = group.dma_dur
            count = group.count
            self._record_comm(src, dur * count, now + dur)
            arg = group.gid * nj + job
            # the slot vector is kept as a heap: only the minimum free-at
            # value is observable (channels are interchangeable), so the
            # earliest-free scan of the object kernel collapses to a peek
            # plus a sift — identical burst timing.  Chunks that find a
            # free channel come first (a taken channel is free only after
            # ``now``) and all enter the NoC at ``now + dur``: their rows
            # would be adjacent in one bucket, so one burst row runs them.
            burst = 0
            while burst < count and slots[0] <= now:
                heapreplace(slots, now + dur)
                burst += 1
            if burst == 1:
                engine.sched_op(now + dur, OP_NOC_START, arg)
            elif burst:
                engine.sched_op(
                    now + dur, OP_NOC_BURST, arg * self._dma_channels + burst - 1
                )
            for __ in range(count - burst):
                free_at = slots[0]
                heapreplace(slots, free_at + dur)
                defer_op(free_at, dur, OP_NOC_START, arg)

    def _op_flow_null(self, arg: int) -> None:
        fid = arg // self._nj
        self._complete_flow(self.flows[fid], arg - fid * self._nj)

    def _op_noc_burst(self, arg: int) -> None:
        """Several chunks of one group leave their DMA channels at once."""
        arg, extra = divmod(arg, self._dma_channels)
        noc_start = self._op_noc_start
        for __ in range(extra + 1):
            noc_start(arg)

    def _op_noc_start(self, arg: int) -> None:
        """DMA serialisation done: one chunk enters the NoC (transfer_bytes)."""
        nj = self._nj
        gid = arg // nj
        group = self.groups[gid]
        tracer = self.tracer
        engine = self.engine
        plan = group.plan
        tracer.n_transfers += 1
        land = True
        flow = group.flow
        if flow.fold:
            job = arg - gid * nj
            unstarted = flow.unstarted[job] - 1
            flow.unstarted[job] = unstarted
            dst = group.dst
            if unstarted and (dst is None or self._cl_seen[dst]):
                # last-chunk-only landing: a later chunk of this (flow,
                # job) lands strictly later on the same FIFO route, so this
                # chunk's landing only adds its delivery cycles and counts
                # down — both done here — while its max-updates are
                # dominated by the last landing
                if dst is not None:
                    self._cl_comm[dst] += group.comm_cycles
                flow.pending[job] -= 1
                land = False
        if plan is None:
            # local (same-cluster) handoff: no NoC involvement
            tracer.local_bytes += group.size
            if land:
                engine.sched_op(engine._now, OP_CHUNK_LANDED, arg)
            return
        tracer.noc_bytes += group.size
        tracer.noc_byte_hops += group.byte_hops
        if plan.involves_hbm:
            tracer.hbm_bytes += group.size
        if not plan.touched:
            self._touch_plan(plan)
        ser = group.ser
        link_busy = self._link_busy
        lids = plan.lids
        if not self.model_contention:
            for lid in lids:
                link_busy[lid] += ser
            engine.sched_op(engine._now + group.uncont_lat, OP_CHUNK_LANDED, arg)
            return
        now = engine._now
        busy_until = self._link_until
        drain = now
        for lid in lids:
            link_busy[lid] += ser
            queued = busy_until[lid]
            end = (queued if queued > now else now) + ser
            busy_until[lid] = end
            if end > drain:
                drain = end
        if plan.involves_hbm:
            self._hbm_join(now, drain, plan.hop, group.chan_cycles, arg if land else None)
        elif land:
            engine.defer_op(drain, plan.hop, OP_CHUNK_LANDED, arg)

    def _op_chunk_landed(self, arg: int) -> None:
        nj = self._nj
        gid = arg // nj
        group = self.groups[gid]
        dst = group.dst
        if dst is not None:
            # delivery-side DMA attribution (record_communication, inlined)
            end = self.engine._now
            self._cl_comm[dst] += group.comm_cycles
            if end > self._cl_last[dst]:
                self._cl_last[dst] = end
            if end > self._mk:
                self._mk = end
            if not self._cl_seen[dst]:
                self._cl_seen[dst] = 1
                self._cl_order.append(dst)
        flow = group.flow
        job = arg - gid * nj
        remaining = flow.pending[job] - 1
        flow.pending[job] = remaining
        if remaining == 0:
            self._complete_flow(flow, job)

    def _record_comm(self, cluster: int, cycles: int, end: int) -> None:
        self._cl_comm[cluster] += cycles
        if end > self._cl_last[cluster]:
            self._cl_last[cluster] = end
        if end > self._mk:
            self._mk = end
        if not self._cl_seen[cluster]:
            self._cl_seen[cluster] = 1
            self._cl_order.append(cluster)

    # ------------------------------------------------------------------ #
    # HBM channels (dense capacity-1 FIFO servers)
    # ------------------------------------------------------------------ #
    def _pick_channel(self) -> int:
        """Round-robin over channels, preferring idle ones (exact mirror)."""
        busy = self._chan_busy
        n = len(busy)
        if n == 1:
            return 0
        queues = self._chan_queue
        start = self._hbm_next
        for offset in range(n):
            chan = (start + offset) % n
            if busy[chan] == 0 and not queues[chan]:
                self._hbm_next = (start + offset + 1) % n
                return chan
        # min(queue_length + in_service), first minimal in channel order
        best = 0
        load = busy[0] + len(queues[0])
        for chan in range(1, n):
            candidate = busy[chan] + len(queues[chan])
            if candidate < load:
                load = candidate
                best = chan
        self._hbm_next = (start + 1) % n
        return best

    def _hbm_join(self, now: int, drain: int, hop: int, duration: int, target) -> None:
        """Submit an HBM transfer's channel job; land ``target`` after the join.

        The object kernel joins the route's links (drained at ``drain``)
        and one channel job in a 2-way barrier, then lands ``hop`` cycles
        later.  A channel is a capacity-1 FIFO with durations fixed at
        submit, so the job finishes at ``max(now, busy_until) + duration``.
        When that is no earlier than ``drain``, the channel's completion
        row is the barrier's last arrival whether the channel was idle or
        queued — it joins bucket ``chan_end`` after the links' arrival row,
        which was inserted at ``now`` — so the links' row would only count
        down, and is not scheduled.  ``target`` is ``None`` for a chunk
        whose landing is folded into a later one: the channel job still
        runs, and lands nothing.
        """
        chan = self._pick_channel()
        until = self._chan_until[chan]
        chan_end = (until if until > now else now) + duration
        self._chan_until[chan] = chan_end
        engine = self.engine
        if target is None:
            pend = None
        elif drain <= chan_end:
            pend = [1, hop, target]
        else:
            pend = [2, hop, target]
            engine.sched_op(drain, OP_HBM_ARRIVE, pend)
        if self._chan_busy[chan] == 0 and not self._chan_queue[chan]:
            self._chan_busy[chan] = 1
            engine.sched_op(chan_end, OP_CHAN_DONE, (chan, pend))
        else:
            self._chan_queue[chan].append((duration, pend))

    def _op_chan_done(self, arg: tuple) -> None:
        chan, pend = arg
        # Server._finish: completion callback first, then dequeue (the
        # callback only schedules rows, so nothing joined the queue since)
        if pend is not None:
            self._op_hbm_arrive(pend)
        queue = self._chan_queue[chan]
        if queue:
            duration, pend2 = queue.popleft()
            engine = self.engine
            engine.sched_op(engine._now + duration, OP_CHAN_DONE, (chan, pend2))
        else:
            self._chan_busy[chan] = 0

    def _op_hbm_arrive(self, pend: list) -> None:
        """Barrier.arrive of the links+channel join of one HBM transfer."""
        remaining = pend[0] - 1
        pend[0] = remaining
        if remaining == 0:
            target = pend[2]
            engine = self.engine
            if type(target) is int:
                engine.sched_op(engine._now + pend[1], OP_CHUNK_LANDED, target)
            else:
                engine.after(pend[1], target)

    # ------------------------------------------------------------------ #
    # Callback fallback: external feeds
    # ------------------------------------------------------------------ #
    def _start_feed(self, st: _CompiledStage, flow_index: int, n_bytes: int) -> None:
        """Feed a stage input from the HBM (mirrors _start_external_feed).

        The fetch → grant → deliver recursion re-enters the credit queue
        with a continuation closure, which is exactly the state the
        transition tables do not cover — so it stays a callback chain on
        the engine's callback lane, interleaving exactly with the opcode
        rows.
        """
        nj = self._nj
        dst = st.io_cluster
        comm = math.ceil(n_bytes / self._dma_bw) if n_bytes > 0 else 0
        in_credits = st.in_credits
        in_wait = st.in_wait[flow_index]
        delivered_counts = st.delivered
        arrivals = self.workload.arrival_cycles

        def fetch(job: int) -> None:
            if job >= nj:
                return

            def granted() -> None:
                def delivered() -> None:
                    if dst is not None:
                        self._record_comm(dst, comm, self.engine._now)
                    delivered_counts[flow_index] += 1
                    self._try_start(st)
                    fetch(job + 1)

                self._fetch_cb(dst, n_bytes, delivered)

            def acquire() -> None:
                if in_credits[flow_index] > 0 and not in_wait:
                    in_credits[flow_index] -= 1
                    granted()
                else:
                    in_wait.append(granted)

            # open workloads: hold the fetch (and the credit acquisition)
            # until the request arrives — mirrors _start_external_feed
            if arrivals and arrivals[job] > self.engine._now:
                self.engine.at(arrivals[job], acquire)
            else:
                acquire()

        fetch(0)

    def _fetch_cb(self, dst: int, n_bytes: int, on_done) -> None:
        """Callback-continuation HBM fetch over the dense link/channel state.

        Same timing and tracer updates as the compiled path, but the
        completion is an arbitrary callable, delivered through the
        engine's callback lane (and the HBM barrier cell's callable
        target).  Only the external feeds use it, and they always read
        from the HBM.
        """
        engine = self.engine
        tracer = self.tracer
        if dst is None:
            raise ValueError("a transfer needs at least one on-chip endpoint")
        if n_bytes == 0:
            tracer.n_transfers += 1
            engine.after(0, on_done)
            return
        plan = self._plan(None, dst)
        memo = plan.cycles_memo.get(n_bytes)
        if memo is None:
            serialization = -(-n_bytes // plan.min_width)
            hbm_extra = self.arch.hbm.service_cycles(n_bytes) - serialization
            plan.cycles_memo[n_bytes] = (serialization, hbm_extra)
        else:
            serialization, hbm_extra = memo
        tracer.n_transfers += 1
        tracer.noc_bytes += n_bytes
        tracer.noc_byte_hops += n_bytes * plan.n_hops
        tracer.hbm_bytes += n_bytes
        if not plan.touched:
            self._touch_plan(plan)
        link_busy = self._link_busy
        lids = plan.lids
        if not self.model_contention:
            for lid in lids:
                link_busy[lid] += serialization
            engine.after(plan.hop + serialization + hbm_extra, on_done)
            return
        now = engine._now
        busy_until = self._link_until
        drain = now
        for lid in lids:
            link_busy[lid] += serialization
            queued = busy_until[lid]
            end = (queued if queued > now else now) + serialization
            busy_until[lid] = end
            if end > drain:
                drain = end
        self._hbm_join(now, drain, plan.hop, serialization + hbm_extra, on_done)

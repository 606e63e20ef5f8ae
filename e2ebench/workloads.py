"""The benchmark's three workloads.

Each workload is built from the run's seed (its set-up), then runs the
same operation again and again.  ``prepare()`` makes an operation's
fresh inputs outside the timed interval, ``operation()`` is the timed
call into the program, and ``check()`` compares its output with the
independent computations of :mod:`checks`.  ``traced_operation()`` runs
the same operation with the layer timers of :mod:`layers` in place and
returns that operation's per-layer figures.
"""

from __future__ import annotations

import os
import time

import numpy as np

import checks
import repro
from layers import TimedCost, TimedSink, Tracer, timed_controller
from repro.analysis.mergetree import MergeTreeWorkload
from repro.analysis.registration import RegistrationWorkload
from repro.analysis.registration.volumes import SyntheticVolumeGrid, VolumeGridSpec
from repro.analysis.statistics import StatisticsWorkload
from repro.data import hcci_proxy
from repro.obs import JsonlExporter, ListSink
from repro.obs.events import RUN_FINISHED, TASK_ENQUEUED, TASK_FINISHED, TASK_STARTED
from repro.runtimes import MPIController
from repro.runtimes.local import LocalPoolController
from repro.sched.compile import PLAN_CACHE

#: Shape of the HCCI proxy fields (the benchmark harness's ``bench_field``).
FIELD_SHAPE = (48, 48, 48)


def make_field(seed: int) -> np.ndarray:
    """A seeded 48^3 HCCI proxy field with 40 ignition kernels."""
    return hcci_proxy(FIELD_SHAPE, n_features=40, feature_sigma=2.0, seed=seed)


def _clock(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class MergeTreeSim:
    """Fig. 6 point: merge tree of one field on 256 simulated MPI ranks
    (interpreted engine, no sinks)."""

    name = "mergetree_sim"
    N_BLOCKS = 1024
    VALENCE = 4
    THRESHOLD = 0.45
    N_PROCS = 256

    def __init__(self, seed: int, scratch: str) -> None:
        self.field, self.field_s = _clock(make_field, 2018 + seed)
        self.wl = MergeTreeWorkload(
            self.field, self.N_BLOCKS, self.THRESHOLD, valence=self.VALENCE,
            sim_shape=(1024, 1024, 1024),
        )
        self.components = checks.superlevel_components(self.field, self.THRESHOLD)

    def prepare(self):
        return None

    def operation(self, _):
        wl = self.wl
        return wl.run(MPIController(self.N_PROCS, cost_model=wl.cost_model()))

    def check(self, _, result) -> int:
        checks.check_task_count(result.stats.tasks_executed, self.wl.graph.size())
        checks.check_partition(self.wl.assemble(result), self.components)
        return result.stats.tasks_executed

    def traced_operation(self, tracer: Tracer, _) -> tuple:
        wl, g = self.wl, self.wl.graph
        op = tracer.begin_op()
        c = MPIController(self.N_PROCS, cost_model=TimedCost(wl.cost_model(), tracer))
        c.initialize(g, None)
        for cid, fn, name in (
            (g.LOCAL, wl.local_compute, "mergetree.local"),
            (g.JOIN, wl.join, "mergetree.join"),
            (g.RELAY, wl.relay, "mergetree.relay"),
            (g.CORRECTION, wl.correction, "mergetree.correction"),
            (g.SEGMENTATION, wl.segmentation, "mergetree.segmentation"),
        ):
            c.register_callback(cid, tracer.wrap(name, fn))
        inputs = wl.initial_inputs()
        with tracer.materialize(g), tracer.span("runtimes.run"):
            result = c.run(inputs)
        total, own = tracer.op_totals(op)
        tasks = result.stats.tasks_executed
        layers = {
            "mergetree.local_s": total["mergetree.local"],
            "mergetree.join_s": total["mergetree.join"],
            "mergetree.correction_s": total["mergetree.correction"],
            "mergetree.segmentation_s": total["mergetree.segmentation"],
            "costs.model_s": total["costs.model"],
            "graphs.materialize_s": total["graphs.materialize"],
            "data.field_s": self.field_s,
            **_sim_layers(own["runtimes.run"], result),
        }
        return result, layers


class RegistrationLocal:
    """Fig. 9 point on real cores: a 3x3 grid of 32^3 volumes through
    the ``local`` backend's process pool of two workers.

    The grid is the same on every seed (generator seed 77): with other
    generator seeds the program recovers some offsets one voxel off (see
    the README), and an operation that fails on some seeds only cannot
    be told apart from a regression.
    """

    name = "registration_local"
    GRID_SEED = 77
    WORKERS = 2

    def __init__(self, seed: int, scratch: str) -> None:
        spec = VolumeGridSpec(
            gx=3, gy=3, vol_shape=(32, 32, 32), overlap=0.2, max_jitter=2,
            seed=self.GRID_SEED,
        )
        self.grid, self.grid_s = _clock(SyntheticVolumeGrid, spec)
        self.wl = RegistrationWorkload(self.grid, slabs=2)

    def prepare(self):
        return None

    def operation(self, _):
        return self.wl.run(LocalPoolController(self.WORKERS, mode="process"))

    def check(self, _, result) -> int:
        checks.check_task_count(result.stats.tasks_executed, self.wl.graph.size())
        checks.check_offsets(self.wl.recovered_offsets(result), self.grid.true_offsets)
        return result.stats.tasks_executed

    def traced_operation(self, tracer: Tracer, _) -> tuple:
        # Callbacks run in worker processes, so their times come from the
        # backend's wall-clock lifecycle events rather than from spans.
        wl, g = self.wl, self.wl.graph
        tracer.begin_op()
        sink = ListSink()
        result = wl.run(LocalPoolController(self.WORKERS, mode="process", sinks=[sink]))
        names = {
            g.EXTRACT: "registration.extract_s",
            g.CORRELATE: "registration.correlate_s",
            g.EVALUATE: "registration.evaluate_s",
            g.PLACE: "registration.place_s",
        }
        layers = dict.fromkeys(names.values(), 0.0)
        enqueued: dict = {}
        started: dict = {}
        busy = 0.0
        calls = 0
        makespan = 0.0
        for ev in sink.events:
            if ev.type == TASK_ENQUEUED:
                enqueued[ev.task] = ev.t
            elif ev.type == TASK_STARTED:
                started[ev.task] = ev.t
            elif ev.type == TASK_FINISHED:
                cb = g.task(ev.task).callback
                layers[names[cb]] += ev.dur
                busy += ev.dur
                calls += cb == g.CORRELATE
            elif ev.type == RUN_FINISHED:
                makespan = ev.t
        capacity = self.WORKERS * makespan
        layers.update(
            {
                "registration.correlate_calls": calls,
                "local.queue_wait_s": sum(started[t] - enqueued[t] for t in started),
                "local.idle_s": capacity - busy,
                "local.busy_share": busy / capacity if capacity > 0 else 0.0,
                "runtimes.tasks": result.stats.tasks_executed,
                "runtimes.messages": result.stats.messages,
                "runtimes.bytes_sent": result.stats.bytes_sent,
                "data.grid_s": self.grid_s,
            }
        )
        return result, layers


class StatsTraced:
    """In-situ statistics stream: each operation summarizes a fresh field
    through ``repro.run`` on 64 simulated MPI ranks with a compiled plan,
    streaming the run's events to a JSONL trace."""

    name = "stats_traced"
    N_BLOCKS = 1024
    VALENCE = 4
    N_PROCS = 64

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.trace_path = os.path.join(scratch, "stats-trace.jsonl")
        self.n_ops = 0

    def prepare(self):
        """A fresh field for the next operation (seeded by run seed and
        operation index), and the seconds it took to make."""
        self.n_ops += 1
        state = np.random.SeedSequence([self.seed, self.n_ops]).generate_state(1)
        return _clock(make_field, int(state[0]))

    def operation(self, prepared):
        field, _ = prepared
        wl = StatisticsWorkload(field, self.N_BLOCKS, valence=self.VALENCE)
        g = wl.graph
        exporter = JsonlExporter(self.trace_path)
        try:
            result = repro.run(
                g, {g.LEAF: wl.summarize, g.REDUCE: wl.merge, g.ROOT: wl.merge},
                wl.initial_inputs(), runtime="mpi", n_procs=self.N_PROCS,
                compile=True, cost_model=wl.cost_model(), sinks=[exporter],
            )
        finally:
            exporter.close()
        return wl, result

    def check(self, prepared, outcome) -> int:
        field, _ = prepared
        wl, result = outcome
        n = wl.graph.size()
        checks.check_task_count(result.stats.tasks_executed, n)
        checks.check_summary(wl.global_stats(result), field, wl.bins, wl.bin_range)
        try:
            with open(self.trace_path) as fp:
                checks.check_trace(fp, n)
        finally:
            os.remove(self.trace_path)
        return result.stats.tasks_executed

    def traced_operation(self, tracer: Tracer, prepared) -> tuple:
        field, field_s = prepared
        op = tracer.begin_op()
        wl = StatisticsWorkload(field, self.N_BLOCKS, valence=self.VALENCE)
        g = wl.graph
        callbacks = {
            g.LEAF: tracer.wrap("statistics.summarize", wl.summarize),
            g.REDUCE: tracer.wrap("statistics.merge", wl.merge),
            g.ROOT: tracer.wrap("statistics.merge", wl.merge),
        }
        sink = TimedSink(JsonlExporter(self.trace_path), tracer)
        cost = TimedCost(wl.cost_model(), tracer)
        inputs = wl.initial_inputs()
        before = PLAN_CACHE.stats()
        try:
            with tracer.materialize(g), tracer.span("api.run"):
                result = repro.run(
                    g, callbacks, inputs,
                    runtime=timed_controller(MPIController, tracer),
                    n_procs=self.N_PROCS, compile=True, cost_model=cost,
                    sinks=[sink],
                )
        finally:
            sink.close()
        after = PLAN_CACHE.stats()
        trace_bytes = os.path.getsize(self.trace_path)
        total, own = tracer.op_totals(op)
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        layers = {
            "statistics.summarize_s": total["statistics.summarize"],
            "statistics.merge_s": total["statistics.merge"],
            "costs.model_s": total["costs.model"],
            "graphs.materialize_s": total["graphs.materialize"],
            "obs.emit_s": total["obs.emit"],
            "obs.events": sink.events,
            "obs.trace_bytes": trace_bytes,
            "obs.bytes_per_event": trace_bytes / max(1, sink.events),
            "api.facade_s": own["api.run"],
            "sched.plan_hits": hits,
            "sched.plan_misses": misses,
            "sched.plan_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "sched.fallbacks": sink.fallbacks,
            "data.field_s": field_s,
            **_sim_layers(own["runtimes.run"], result),
        }
        return (wl, result), layers


def _sim_layers(sim_self_s: float, result) -> dict:
    """Simulator self time and the dataflow's counts."""
    tasks = result.stats.tasks_executed
    return {
        "runtimes.sim_self_s": sim_self_s,
        "runtimes.sim_self_us_per_task": 1e6 * sim_self_s / max(1, tasks),
        "runtimes.tasks": tasks,
        "runtimes.messages": result.stats.messages,
        "runtimes.bytes_sent": result.stats.bytes_sent,
    }


WORKLOADS = {w.name: w for w in (MergeTreeSim, RegistrationLocal, StatsTraced)}

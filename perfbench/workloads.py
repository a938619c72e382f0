"""One workload in one process: set up, measure, check, report.

``run.py`` starts this file as a child process once per measured run
(``--mode run``) and for each extra set-up sample (``--mode setup``)::

    python3 perfbench/workloads.py --workload conversion --seed 1 \\
        --seconds 20 --trace 0 --mode run --scratch DIR --t0 MONOTONIC \\
        --probe-fds W,R

where ``--t0`` is ``time.monotonic()`` just before the spawn, so that
``setup_s`` counts interpreter start-up too, and ``W,R`` are the pipe
ends on which the process asks ``run.py`` to time its speed probe (see
:class:`SpeedProbe`). The last line of standard output is one JSON
document, with every duration and rate both as measured (``raw``) and
at reference machine speed (``ref``).

All four workloads are closed loops with one caller: the next unit
starts when the previous one returned. Only the library's public calls are driven
(``HostSpec.materialize``, ``Session.build``, ``Session.verify``,
``SpannerService.apply``, ``run_sweep``), and every output is checked
after the timed loop by :mod:`ledger_checks`. Once per
:data:`PROBE_EVERY_S` of unit time the loop pauses for a speed probe,
and each unit is rescaled by the probe readings around it.

With ``--trace 1`` the run is split in two halves over the same inputs:
an untraced half, then a half with :mod:`ledger_trace` wrappers
installed. The per-layer numbers come from the traced half; the
throughput difference between the halves is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import struct
import sys
import time
import traceback
from contextlib import nullcontext
from typing import Dict, List, Optional

from ledger_checks import (
    lemma31_violations,
    not_subgraph,
    stretch_violations,
    two_spanner_answer_ok,
)
from ledger_stats import FailureLedger, median, tail
from ledger_trace import Tracer, install_repro_wrappers, layer_totals, unit_coverage

#: Set in a traced sweep: each spawned sweep worker (which imports this
#: file as ``__mp_main__``) times ``import repro`` and its ``run_shard``
#: and leaves one JSON record per process in this directory.
SHARD_LOG_ENV = "PERFBENCH_SHARD_LOG"

#: Per-unit host seeds: seed * stride + unit index.
SEED_STRIDE = 100_000

#: On a shared 2-vCPU virtual machine the CPU speed switched between a
#: fast and a slow state (1.5-2x apart) every 10-20 s, which alone
#: exceeds every bound. Each unit is therefore rescaled to the machine
#: speed at which the runner's probe (``speed_probe`` in run.py, which
#: uses no library code) takes this many milliseconds.
REFERENCE_PROBE_MS = 8.0
#: Unit time between two speed probes.
PROBE_EVERY_S = 0.25
#: A unit's speed is the median of this many readings on each side of
#: the one taken before it (5 readings, about 1.25 s of unit time).
LOCAL_READINGS = 2

#: Units shorter than this are left out of the per-unit coverage minimum:
#: below a millisecond (serve's neighbour reads and small writes) the
#: tracer's own microseconds of bookkeeping dominate the unit.
COVERAGE_MIN_WALL_S = 1e-3


def _edges(graph) -> List[tuple]:
    return [(u, v, float(w)) for u, v, w in graph.edges()]


class Workload:
    """A closed loop of units; subclasses define one unit and its checks."""

    name = ""
    labels = ("", "")  # names of the primary and secondary timed calls
    #: Span names that must fire in the traced half (stale-binding guard).
    required_spans: tuple = ()

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.tracer: Optional[Tracer] = None

    def setup(self) -> None:
        """Everything before the first timed unit, after ``import repro``."""

    def restart(self) -> None:
        """Return to the state before unit 0, so the traced half repeats it."""

    def prepare(self, index: int) -> None:
        """Untimed work before unit ``index``."""

    def unit(self, index: int, uid: int) -> Dict[str, float]:
        """Run one unit; return seconds of its primary/secondary calls."""
        raise NotImplementedError

    def finish(self, index: int, timings: Dict[str, float]) -> None:
        """Untimed work after unit ``index``."""

    def spanner_edges(self) -> float:
        """Spanner size, from a fixed set of outputs so run length cannot move it."""
        raise NotImplementedError

    def check(self, ledger: FailureLedger) -> bool:
        """Independent output checks; per-unit failures go to ``ledger``."""
        return True

    def close(self) -> None:
        """Release what the workload started."""

    def layer_metrics(self) -> Dict[str, float]:
        """Workload-specific per-layer values from the traced half."""
        return {}

    def missing_layers(self) -> List[str]:
        """Measurements outside the span tracer that never fired."""
        return []


class BuildWorkload(Workload):
    """Units of three calls: materialize a fresh host, build, verify.

    Outputs are kept as one byte per host edge (is it in the spanner?),
    filled in outside the timed unit, so memory does not grow with the
    number of units a fast run gets through; the checks rebuild the host
    from its seeded spec.
    """

    directed = False
    #: ``spanner_edges`` is the mean size over units ``0..SIZE_UNITS-1``;
    #: a run too short to reach them all builds the rest after the loop.
    SIZE_UNITS = 40

    def setup(self) -> None:
        import repro

        self.repro = repro
        self.session = repro.Session()
        self.outputs: Dict[int, tuple] = {}  # uid -> (index, verified, subgraph, mask)
        self.sizes: Dict[int, int] = {}  # unit index -> spanner size
        self._pending: Optional[tuple] = None

    def unit_seed(self, index: int) -> int:
        return self.seed * SEED_STRIDE + index

    def host_spec(self, index: int):
        raise NotImplementedError

    def spanner_spec(self, index: int):
        raise NotImplementedError

    def verify(self, report, host, index: int) -> bool:
        raise NotImplementedError

    def check_spanner(self, host, host_edges, spanner, index: int) -> Optional[str]:
        """The reason the spanner fails its promise, or ``None``."""
        raise NotImplementedError

    def unit(self, index: int, uid: int) -> Dict[str, float]:
        self._pending = None
        clock = time.perf_counter
        host = self.host_spec(index).materialize()
        t0 = clock()
        report = self.session.build(self.spanner_spec(index), graph=host)
        t1 = clock()
        ok = self.verify(report, host, index)
        t2 = clock()
        self._pending = (uid, host, report, ok)
        return {"primary": t1 - t0, "secondary": t2 - t1}

    def finish(self, index: int, timings: Dict[str, float]) -> None:
        if self._pending is None:  # the unit raised
            return
        uid, host, report, ok = self._pending
        self._pending = None
        host_edges, spanner = _edges(host), _edges(report.spanner)
        kept = {(u, v) for u, v, _w in spanner}
        if not self.directed:
            kept |= {(v, u) for u, v in kept}
        mask = bytes((u, v) in kept for u, v, _w in host_edges)
        subgraph = not_subgraph(host_edges, spanner, self.directed) == 0
        self.sizes[index] = report.size
        self.outputs[uid] = (index, ok, subgraph, mask)

    def spanner_edges(self) -> float:
        for index in range(self.SIZE_UNITS):
            if index not in self.sizes:
                spec, host = self.spanner_spec(index), self.host_spec(index).materialize()
                self.sizes[index] = self.session.build(spec, graph=host).size
        return sum(self.sizes[i] for i in range(self.SIZE_UNITS)) / self.SIZE_UNITS

    def check(self, ledger: FailureLedger) -> bool:
        for uid, (index, ok, subgraph, mask) in sorted(self.outputs.items()):
            if not ok:
                ledger.fail(uid, "verify returned False")
            if not subgraph:
                ledger.fail(uid, "spanner edge not in host")
            host = self.host_spec(index).materialize()
            host_edges = _edges(host)
            spanner = [edge for edge, bit in zip(host_edges, mask) if bit]
            reason = self.check_spanner(host, host_edges, spanner, index)
            if reason is not None:
                ledger.fail(uid, reason)
        return True


class Conversion(BuildWorkload):
    """Theorem 2.1: fresh host, ``Session.build(theorem21)``, sampled verify."""

    name = "conversion"
    labels = ("build", "verify")
    required_spans = (
        "hosts.materialize",
        "core.build.theorem21",
        "graph.snapshot",
        "core.verify",
        "graph.dijkstra",
        "graph.without_vertices",
    )
    N, P, K, R, TRIALS = 150, 0.5, 3, 2, 1

    def setup(self) -> None:
        super().setup()
        from repro.compiled import compiled_available

        if compiled_available():  # builds or loads the C kernels now
            self.required_spans = self.required_spans + ("compiled.greedy",)

    def host_spec(self, index: int):
        return self.repro.HostSpec(
            "gnp-connected", {"n": self.N, "p": self.P}, seed=self.unit_seed(index)
        )

    def spanner_spec(self, index: int):
        return self.repro.SpannerSpec(
            "theorem21",
            stretch=self.K,
            faults=self.repro.FaultModel.vertex(self.R),
            seed=self.unit_seed(index),
        )

    def verify(self, report, host, index: int) -> bool:
        return self.session.verify(
            report, graph=host, mode="sampled", trials=self.TRIALS, seed=self.unit_seed(index)
        )

    def check_spanner(self, host, host_edges, spanner, index: int) -> Optional[str]:
        vertices = sorted(host.vertices())
        rng = random.Random(f"{self.seed}:{index}")
        for faults in (set(), set(rng.sample(vertices, self.R))):
            if stretch_violations(host_edges, spanner, vertices, self.K, faults):
                return f"stretch > {self.K} (networkx)"
        return None


class LP(BuildWorkload):
    """Section 3: ``Session.build(ft2-approx)`` then ``verify(lemma31)``."""

    name = "lp"
    labels = ("build", "verify")
    required_spans = (
        "hosts.materialize",
        "core.build.ft2-approx",
        "two_spanner.build_lp",
        "lp.solve",
        "lp.separation",
        "lp.cutting_plane",
        "two_spanner.rounding",
        "core.verify",
        "core.lemma31",
    )
    directed = True
    N, P, R = 26, 0.25, 1

    def host_spec(self, index: int):
        return self.repro.HostSpec(
            "gnp-digraph", {"n": self.N, "p": self.P}, seed=self.unit_seed(index)
        )

    def spanner_spec(self, index: int):
        return self.repro.SpannerSpec(
            "ft2-approx",
            stretch=2,
            faults=self.repro.FaultModel.vertex(self.R),
            seed=self.unit_seed(index),
        )

    def verify(self, report, host, index: int) -> bool:
        return self.session.verify(report, graph=host, mode="lemma31")

    def check_spanner(self, host, host_edges, spanner, index: int) -> Optional[str]:
        if lemma31_violations(host_edges, spanner, self.R, directed=True):
            return "Lemma 3.1 two-path count short (set arithmetic)"
        return None


class Serve(Workload):
    """A live FT 2-spanner service replaying a seeded 90/10 op stream."""

    name = "serve"
    labels = ("query", "write")
    required_spans = ("serve.apply", "graph.snapshot", "graph.dijkstra", "serve.repair")
    N, M, R, READ_RATIO = 10_000, 5, 1, 0.9
    CHUNK = 2_000
    SAMPLED_QUERIES = 20
    WRITES = ("ADD_NODE", "ADD_EDGE", "DEL_EDGE", "DEL_NODE")

    def setup(self) -> None:
        import repro
        from repro.graph.csr import maybe_snapshot
        from repro.serve import read_write_weights

        self.repro = repro
        self.maybe_snapshot = maybe_snapshot
        self.weights = read_write_weights(self.READ_RATIO)
        self.host_spec = repro.HostSpec(
            "barabasi-albert", {"n": self.N, "m": self.M}, seed=self.seed
        )
        self.passes: List[List[tuple]] = []  # per pass: (op, uid, ok, health, value)
        self.valid_before_restart = True
        self.cold: List[float] = []
        self.warm: List[float] = []
        self._cold_next = False
        self._start()

    def _start(self) -> None:
        host = self.host_spec.materialize()
        # The generator mirrors the initial host, so it is made before the
        # service starts mutating it.
        self.generator = self.repro.WorkloadGenerator(host, seed=self.seed, weights=self.weights)
        self.ops = self.generator.generate(self.CHUNK)
        self.service = self.repro.SpannerService(host, r=self.R, seed=self.seed)
        self.initial_edges = self.service.spanner.num_edges
        self.answers: List[tuple] = []
        self.passes.append(self.answers)

    def restart(self) -> None:
        self.valid_before_restart = self.service.is_valid()
        self._start()

    def prepare(self, index: int) -> None:
        while index >= len(self.ops):
            self.ops.extend(self.generator.generate(self.CHUNK))
        if self.tracer is not None and self.ops[index].type == "QUERY_DIST":
            cold = self.maybe_snapshot(self.service.spanner, build=False) is None
            self._cold_next = cold
            if cold:
                self.tracer.count("serve.cold_queries")

    def unit(self, index: int, uid: int) -> Dict[str, float]:
        op = self.ops[index]
        t0 = time.perf_counter()
        result = self.service.apply(op)
        elapsed = time.perf_counter() - t0
        self.answers.append((op, uid, result.ok, result.health, result.value))
        if op.type == "QUERY_DIST":
            return {"primary": elapsed}
        if op.type in self.WRITES:
            return {"secondary": elapsed}
        return {}

    def finish(self, index: int, timings: Dict[str, float]) -> None:
        if self.tracer is not None and "primary" in timings:
            (self.cold if self._cold_next else self.warm).append(timings["primary"])

    def spanner_edges(self) -> float:
        """The initial build's size: later ones depend on how many ops ran."""
        return float(self.initial_edges)

    def check(self, ledger: FailureLedger) -> bool:
        initial = self.host_spec.materialize()
        for answers in self.passes:
            mirror = self._replay(answers, initial, ledger)
        final_host = [(u, v, d["weight"]) for u, v, d in mirror.edges(data=True)]
        spanner = _edges(self.service.spanner)
        return (
            self.valid_before_restart
            and self.service.is_valid()
            and lemma31_violations(final_host, spanner, self.R, directed=False) == 0
        )

    def _replay(self, answers: List[tuple], initial, ledger: FailureLedger):
        """Replay one pass on a networkx mirror, checking sampled answers."""
        import networkx as nx

        queries = [a[1] for a in answers if a[0].type == "QUERY_DIST"]
        sampled = set(random.Random(self.seed).sample(queries, min(self.SAMPLED_QUERIES, len(queries))))
        mirror = nx.Graph()
        mirror.add_nodes_from(initial.vertices())
        mirror.add_weighted_edges_from(initial.edges())
        for op, uid, ok, health, value in answers:
            if not ok:
                ledger.fail(uid, "op skipped")
            if health != "healthy":
                ledger.fail(uid, f"answered {health}")
            p = op.params
            if op.type == "ADD_NODE":
                mirror.add_node(p["v"])
            elif op.type == "ADD_EDGE":
                mirror.add_edge(p["u"], p["v"], weight=float(p.get("weight", 1.0)))
            elif op.type == "DEL_EDGE":
                mirror.remove_edge(p["u"], p["v"])
            elif op.type == "DEL_NODE":
                mirror.remove_node(p["v"])
            elif uid in sampled and not two_spanner_answer_ok(value, mirror, p["u"], p["v"]):
                ledger.fail(uid, "QUERY_DIST outside [d, 2d] of networkx host distance")
        return mirror

    def layer_metrics(self) -> Dict[str, float]:
        return {
            "serve.query_cold_ms": 1000 * (median(self.cold) or 0.0),
            "serve.query_warm_ms": 1000 * (median(self.warm) or 0.0),
        }


class Sweep(Workload):
    """Repeated ``run_sweep(workers=2)`` of one 8-build theorem21 grid."""

    name = "sweep"
    labels = ("sweep", "merge")
    required_spans = ("sweep.run", "sweep.load", "sweep.merge")
    N, P, WORKERS = 120, 0.2, 2

    def setup(self) -> None:
        import repro
        import repro.analysis.experiments as experiments
        import repro.sweep as sweep

        self.repro, self.sweep, self.experiments = repro, sweep, experiments
        topologies = [
            repro.HostSpec("gnp-connected", {"n": self.N, "p": self.P}, seed=self.seed * 2 + j)
            for j in (1, 2)
        ]
        self.plan = repro.emit_grid_plan(
            ["theorem21"], [3], [1, 2], topologies=topologies, seeds=2, seed_base=self.seed
        )
        self.digests: Dict[int, str] = {}
        self.retried: List[int] = []  # uids whose sweep re-ran a shard
        self.size = 0  # spanner edges of one unit's reports
        self.shard_records: List[dict] = []
        self.spawn_overhead: List[float] = []
        self._log_dir: Optional[str] = None

    def prepare(self, index: int) -> None:
        self.unit_dir = os.path.join(self.scratch, f"sweep-{index}")
        shutil.rmtree(self.unit_dir, ignore_errors=True)
        if self.tracer is not None:
            self._log_dir = os.path.join(self.scratch, f"shards-{index}")
            os.makedirs(self._log_dir, exist_ok=True)
            os.environ[SHARD_LOG_ENV] = self._log_dir

    def unit(self, index: int, uid: int) -> Dict[str, float]:
        t0 = time.perf_counter()
        reports = self.sweep.run_sweep(self.plan, workers=self.WORKERS, reports_dir=self.unit_dir)
        t1 = time.perf_counter()
        paths = sorted(
            os.path.join(self.unit_dir, name)
            for name in os.listdir(self.unit_dir)
            if name.endswith(".json")
        )
        envelopes = [self.sweep.load_shard_report(path) for path in paths]
        merged = self.experiments.merge_shard_reports(envelopes)
        t2 = time.perf_counter()
        if any(e.get("attempts", 1) > 1 or e.get("timed_out") for e in envelopes):
            self.retried.append(uid)
        self.size = sum(report.size for report in reports)
        self.digests[uid] = _reports_blob(reports) + "\n" + _reports_blob(merged)
        if self.tracer is not None:
            for report in reports:
                self.tracer.count(f"dispatch.{report.resolved_method}")
        return {"primary": t1 - t0, "secondary": t2 - t1}

    def finish(self, index: int, timings: Dict[str, float]) -> None:
        shutil.rmtree(self.unit_dir, ignore_errors=True)
        if self._log_dir is None:
            return
        os.environ.pop(SHARD_LOG_ENV, None)
        records = []
        for name in sorted(os.listdir(self._log_dir)):
            with open(os.path.join(self._log_dir, name), encoding="utf-8") as handle:
                records.append(json.load(handle))
        shutil.rmtree(self._log_dir, ignore_errors=True)
        self._log_dir = None
        self.shard_records.extend(records)
        if records and "primary" in timings:
            slowest = max(record["run_shard_s"] for record in records)
            self.spawn_overhead.append(timings["primary"] - slowest)

    def check(self, ledger: FailureLedger) -> bool:
        # The reference: Session.build_many of the same resolved plan,
        # one call per host, back in plan order.
        resolved = self.plan.resolve_seeds(0)
        session = self.repro.Session()
        by_host: Dict[str, List[int]] = {}
        for position, key in enumerate(resolved.host_keys):
            by_host.setdefault(key, []).append(position)
        reference: List = [None] * len(resolved)
        for key, positions in by_host.items():
            built = session.build_many(
                [resolved.specs[p] for p in positions], graph=resolved.host_graph(key)
            )
            for position, report in zip(positions, built):
                reference[position] = report
        expected = _reports_blob(reference)
        expected = expected + "\n" + expected
        for uid, blob in self.digests.items():
            if blob != expected:
                ledger.fail(uid, "merged reports differ from Session.build_many")
        for uid in self.retried:
            ledger.fail(uid, "a shard crashed or timed out and was re-run")
        return True

    def spanner_edges(self) -> float:
        """Every unit runs the same plan, so any unit's total will do."""
        return float(self.size)

    def close(self) -> None:
        # run_sweep's spawn context starts a resource tracker process that
        # would otherwise outlive this one; the library exposes no public
        # way to stop it.
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()

    def missing_layers(self) -> List[str]:
        return [] if self.shard_records else ["sweep worker run_shard"]

    def layer_metrics(self) -> Dict[str, float]:
        return {
            "import.child_s": median([r["import_s"] for r in self.shard_records]) or 0.0,
            "sweep.spawn_overhead_s": median(self.spawn_overhead) or 0.0,
        }


def _reports_blob(reports) -> str:
    return json.dumps([report.to_dict() for report in reports], sort_keys=True)


WORKLOADS = {cls.name: cls for cls in (Conversion, LP, Serve, Sweep)}

#: Per-layer metric -> the span whose self time it reports, in ms per
#: unit of the traced half.
SPAN_TIMES = {
    "hosts.materialize_ms": "hosts.materialize",
    "graph.snapshot_ms": "graph.snapshot",
    "graph.dijkstra_ms": "graph.dijkstra",
    "graph.without_vertices_ms": "graph.without_vertices",
    "compiled.greedy_ms": "compiled.greedy",
    "core.conversion_self_ms": "core.build.theorem21",
    "core.verify_self_ms": "core.verify",
    "core.lemma31_ms": "core.lemma31",
    "two_spanner.build_lp_ms": "two_spanner.build_lp",
    "lp.solve_ms": "lp.solve",
    "lp.separation_ms": "lp.separation",
    "two_spanner.rounding_ms": "two_spanner.rounding",
    "serve.repair_ms": "serve.repair",
    "sweep.load_ms": "sweep.load",
    "sweep.merge_ms": "sweep.merge",
}
#: Per-layer metric -> the span whose calls per unit it reports.
SPAN_CALLS = {
    "graph.dijkstra_calls": "graph.dijkstra",
    "compiled.greedy_calls": "compiled.greedy",
    "lp.solve_calls": "lp.solve",
}
#: Counters reported per unit of the traced half.
PER_UNIT_COUNTS = (
    "graph.snapshot_builds",
    "graph.snapshot_hits",
    "lp.cuts_added",
    "two_spanner.rounding_attempts",
    "sweep.envelope_bytes",
)
#: Counters reported as totals over the traced half.
TOTAL_COUNTS = (
    "dispatch.compiled",
    "dispatch.csr",
    "dispatch.dict",
    "serve.cold_queries",
    "serve.repairs.patch",
    "serve.repairs.region",
    "serve.repairs.full",
)
#: Per-layer metric -> unit, in report order (BENCHMARK.json lists the same).
PER_LAYER_UNITS = {
    "import.repro_s": "s",
    "import.child_s": "s",
    **{name: "ms/unit" for name in SPAN_TIMES},
    **{name: "count/unit" for name in SPAN_CALLS},
    "graph.snapshot_builds": "count/unit",
    "graph.snapshot_hits": "count/unit",
    "compiled.loaded": "bool",
    "lp.cuts_added": "count/unit",
    "two_spanner.rounding_attempts": "count/unit",
    "sweep.envelope_bytes": "B/unit",
    **{name: "count" for name in TOTAL_COUNTS},
    "serve.query_cold_ms": "ms",
    "serve.query_warm_ms": "ms",
    "sweep.spawn_overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage_min_pct": "%",
    "trace.coverage_total_pct": "%",
}


# ---------------------------------------------------------------------------
# The measuring loop
# ---------------------------------------------------------------------------


class SpeedProbe:
    """Readings of the runner's speed probe, taken while this process waits.

    The probe runs in ``run.py``, which holds no library state, so what
    the library leaves in this process (heap, threads) cannot move the
    machine-speed correction.
    """

    def __init__(self, fds: str) -> None:
        self.request, self.answer = (int(fd) for fd in fds.split(","))
        self.readings: List[float] = []  # ms, one per between_units()

    def _ask(self, kind: bytes) -> float:
        os.write(self.request, kind)
        answer = os.read(self.answer, 8)
        if len(answer) != 8:
            raise RuntimeError("run.py stopped answering speed-probe requests")
        return struct.unpack("d", answer)[0]

    def after_setup(self) -> float:
        """A reading for the set-up just finished (the median of several)."""
        return self._ask(b"s")

    def between_units(self) -> int:
        """Take one reading; return its index."""
        self.readings.append(self._ask(b"u"))
        return len(self.readings) - 1

    def scale(self, at: int) -> float:
        """Factor to reference speed for a unit run after reading ``at``."""
        near = self.readings[max(0, at - LOCAL_READINGS) : at + LOCAL_READINGS + 1]
        return REFERENCE_PROBE_MS / median(near)


def measure(
    workload: Workload, seconds: float, ledger: FailureLedger, start: int, probe: SpeedProbe
) -> List[tuple]:
    """Run units back to back until their summed wall time reaches ``seconds``.

    Between units, once per :data:`PROBE_EVERY_S` of unit time, the loop
    waits for a speed probe (untimed for the units themselves). Returns
    ``(wall_s, timings, reading index)`` per unit.
    """
    records: List[tuple] = []
    busy = 0.0
    next_probe = 0.0
    at = -1
    index = start
    tracer = workload.tracer
    while busy < seconds:
        if busy >= next_probe:
            at = probe.between_units()
            next_probe = busy + PROBE_EVERY_S
        workload.prepare(index)
        uid = ledger.attempt()
        timings: Dict[str, float] = {}
        started = time.perf_counter()
        try:
            with tracer.unit(uid) if tracer is not None else nullcontext():
                timings = workload.unit(index, uid)
        except Exception as exc:  # a failed unit is counted, the loop goes on
            traceback.print_exc(file=sys.stderr)
            ledger.fail(uid, f"raised {type(exc).__name__}")
        wall = time.perf_counter() - started
        busy += wall
        workload.finish(index, timings)
        records.append((wall, timings, at))
        index += 1
    return records


def summarize(records: List[tuple], probe: Optional[SpeedProbe]) -> dict:
    """Throughput and per-call timings (ms); at reference speed given ``probe``."""
    scales = [probe.scale(at) if probe else 1.0 for _wall, _timings, at in records]
    doc: Dict[str, object] = {
        "throughput_per_s": len(records) / sum(w * f for (w, _t, _a), f in zip(records, scales))
    }
    for kind in ("primary", "secondary"):
        values = [1000.0 * t[kind] * f for (_w, t, _a), f in zip(records, scales) if kind in t]
        doc[kind] = {"p50": median(values), "tail": tail(values), "count": len(values)}
    return doc


def layer_report(workload: Workload, tracer: Tracer, units: int):
    """Per-layer metrics of the traced half, and required spans that never fired."""
    totals = layer_totals(tracer.spans)
    # A layer this workload never enters reads 0.
    metrics: Dict[str, float] = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name, span in SPAN_TIMES.items():
        metrics[name] = 1000.0 * totals.get(span, {}).get("self_s", 0.0) / units
    for name, span in SPAN_CALLS.items():
        metrics[name] = totals.get(span, {}).get("calls", 0) / units
    for name in PER_UNIT_COUNTS:
        metrics[name] = tracer.counts.get(name, 0) / units
    for name in TOTAL_COUNTS:
        metrics[name] = float(tracer.counts.get(name, 0))
    coverage = unit_coverage(tracer.spans)
    timed = [share for wall, share in coverage.values() if wall >= COVERAGE_MIN_WALL_S]
    metrics["trace.coverage_min_pct"] = 100.0 * min(timed, default=1.0)
    walls = sum(wall for wall, _share in coverage.values())
    glue = sum(wall * (1.0 - share) for wall, share in coverage.values())
    metrics["trace.coverage_total_pct"] = 100.0 * (1.0 - glue / walls)
    metrics.update(workload.layer_metrics())
    missing = [span for span in workload.required_spans if span not in totals]
    missing += workload.missing_layers()
    return metrics, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--scratch", required=True, help="directory for temporary files")
    parser.add_argument("--probe-fds", required=True, help="speed-probe pipe ends W,R")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import repro  # import cost is part of set-up

    import_s = time.perf_counter() - started
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    if os.path.commonpath([src, os.path.realpath(repro.__file__)]) != src:
        print(f"error: imported repro from {repro.__file__}, not from {src}", file=sys.stderr)
        return 2
    from repro.compiled import compiled_available

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    probe = SpeedProbe(args.probe_fds)
    setups = {"setup_s": setup_s, "setup_s_ref": setup_s * REFERENCE_PROBE_MS / probe.after_setup()}
    if args.mode == "setup":
        print(json.dumps(setups))
        return 0

    ledger = FailureLedger()
    doc = dict(setups)
    try:
        if args.trace:
            half = args.seconds / 2
            plain = measure(workload, half, ledger, 0, probe)
            workload.restart()
            tracer = workload.tracer = Tracer()
            install_repro_wrappers(tracer)
            try:
                traced = measure(workload, half, ledger, 0, probe)
            finally:
                tracer.restore()
            workload.tracer = None
            layers, missing = layer_report(workload, tracer, len(traced))
            plain_tput = summarize(plain, probe)["throughput_per_s"]
            traced_tput = summarize(traced, probe)["throughput_per_s"]
            layers["import.repro_s"] = import_s
            layers["compiled.loaded"] = float(compiled_available())
            layers["trace.overhead_pct"] = 100.0 * (plain_tput - traced_tput) / plain_tput
            doc["layers"] = layers
            doc["missing_spans"] = missing
            records = plain + traced
        else:
            records = measure(workload, args.seconds, ledger, 0, probe)
        # The children term covers the sweep workers, which do sweep's builds.
        doc["peak_rss_mb"] = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024.0
        doc["raw"] = summarize(records, None)
        doc["ref"] = summarize(records, probe)
        doc["probe_ms"] = median(probe.readings)
        doc["probe_count"] = len(probe.readings)
        doc["spanner_edges"] = workload.spanner_edges()
        doc["labels"] = list(workload.labels)
        doc["valid_at_end"] = workload.check(ledger)
    finally:
        workload.close()
    doc["attempted"] = ledger.attempted
    doc["failed"] = ledger.failed
    doc["failure_reasons"] = ledger.reasons
    doc["provenance"] = provenance(args.seed)
    print(json.dumps(doc, sort_keys=True))
    return 0


def provenance(seed: int) -> dict:
    """Versions and switches that a result depends on."""
    import hashlib
    import platform

    import numpy
    import scipy

    import repro
    from repro.compiled import compiled_available

    try:
        from scipy.optimize._highspy import _core as highs  # private: no public version

        highs_version = "{}.{}.{}".format(
            highs.HIGHS_VERSION_MAJOR, highs.HIGHS_VERSION_MINOR, highs.HIGHS_VERSION_PATCH
        )
    except (ImportError, AttributeError):
        highs_version = "unknown"
    kernels = os.path.join(os.path.dirname(repro.__file__), "compiled", "_kernels.c")
    with open(kernels, "rb") as handle:
        kernels_hash = hashlib.sha256(handle.read()).hexdigest()[:16]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs_version,
        "compiled_loaded": compiled_available(),
        "compiled_source_sha256": kernels_hash,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _trace_sweep_worker(log_dir: str) -> None:
    """Time ``import repro`` and ``run_shard`` inside one sweep worker."""
    started = time.perf_counter()
    import repro.sweep as sweep

    import_s = time.perf_counter() - started
    original = sweep.run_shard

    def run_shard(*args, **kwargs):
        shard_started = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            record = {"import_s": import_s, "run_shard_s": time.perf_counter() - shard_started}
            path = os.path.join(log_dir, f"{os.getpid()}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(record, handle)

    sweep.run_shard = run_shard


if __name__ == "__mp_main__" and os.environ.get(SHARD_LOG_ENV):
    _trace_sweep_worker(os.environ[SHARD_LOG_ENV])

if __name__ == "__main__":
    sys.exit(main())

"""In-memory span tracing for the benchmark's traced run.

A :class:`Tracer` records one span per wrapped call: name, start, end,
parent span and the unit it belongs to. Spans stay in memory until the
run ends. A span's *self time* is its duration minus the part of it that
its direct child spans cover, so the self times of all spans of a unit
add up to the unit's root span.

:func:`install_repro_wrappers` attaches the tracer to the library at the
bindings the callers actually use (a module-level ``from x import f``
copy is wrapped where it is looked up, not where it is defined). Nothing
inside ``src/`` is changed; :meth:`Tracer.restore` puts every original
back.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

ROOT_SPAN = "unit"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    unit: Any


class Tracer:
    """Span stack plus named counters for one single-threaded process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._unit: Any = None
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._unit))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    @contextmanager
    def unit(self, unit_id: Any):
        """Root span of one benchmark unit; nested spans carry its id."""
        self._unit = unit_id
        try:
            with self.span(ROOT_SPAN) as index:
                yield index
        finally:
            self._unit = None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: Union[str, Callable[..., str]],
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span; ``name`` may compute it from the args.

        ``after(result, *args, **kwargs)`` runs after the span closes.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = self.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``replacement(original)`` until restore."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, replacement(original))
        self._patches.append((owner, attr, original))

    def patch_span(self, owner: Any, attr: str, name, after=None) -> None:
        self.patch(owner, attr, lambda fn: self.wrap(fn, name, after))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def _covered(start: float, end: float, intervals: Sequence[tuple]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if min(b, end) > max(a, start)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        (span.end - span.start) - _covered(span.start, span.end, children.get(i, ()))
        for i, span in enumerate(spans)
    ]


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls`` and total ``self_s``."""
    totals: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = totals.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    return totals


def unit_coverage(spans: Sequence[Span]) -> Dict[Any, tuple]:
    """Per unit: its wall time and the share that named layers account for.

    The root span's own self time is the benchmark's glue between
    library calls; everything else is the self time of some layer, so
    the share is ``1 - root_self / root_wall``.
    """
    own = self_times(spans)
    coverage = {}
    for span, self_s in zip(spans, own):
        if span.name == ROOT_SPAN and span.parent < 0:
            wall = span.end - span.start
            coverage[span.unit] = (wall, 1.0 - self_s / wall if wall > 0 else 1.0)
    return coverage


# ---------------------------------------------------------------------------
# The library's layer boundaries
# ---------------------------------------------------------------------------


def install_repro_wrappers(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark's workloads cross.

    The binding list mirrors how the library calls itself: e.g. the
    Session primes snapshots through ``repro.session.snapshot`` and the
    serve layer answers through ``repro.serve.service.dijkstra``, so
    those names are wrapped rather than only the defining functions.
    """
    import repro.analysis.experiments as experiments
    import repro.compiled.greedy as compiled_greedy
    import repro.core as core
    import repro.core.conversion as conversion
    import repro.core.verify as verify
    import repro.graph.csr as csr
    import repro.graph.graph as graph
    import repro.hosts.spec as hosts_spec
    import repro.lp.model as lp_model
    import repro.serve.service as service
    import repro.session as session
    import repro.sweep as sweep
    import repro.two_spanner.approx as approx
    import repro.two_spanner.lp_new as lp_new
    import repro.two_spanner.paths2 as paths2

    last_snapshot: Dict[int, Any] = {}

    def count_snapshot(snap, g, *args, **kwargs):
        # A hit hands back the very snapshot this graph got last time.
        # Holding it keeps its id from being reused by a new snapshot.
        hit = last_snapshot.get(id(g)) is snap
        last_snapshot[id(g)] = snap
        tracer.count("graph.snapshot_hits" if hit else "graph.snapshot_builds")

    snapshot_bindings = (
        (csr, "snapshot"),  # maybe_snapshot and function-local imports
        (session, "snapshot"),
        (conversion, "snapshot"),
        (paths2, "snapshot"),
        (service, "csr_snapshot"),
    )
    for owner, attr in snapshot_bindings:
        tracer.patch_span(owner, attr, "graph.snapshot", after=count_snapshot)

    tracer.patch_span(hosts_spec.HostSpec, "materialize", "hosts.materialize")
    tracer.patch_span(
        session.Session,
        "build",
        lambda self, spec, *a, **k: f"core.build.{spec.algorithm}",
        after=lambda report, *a, **k: tracer.count(f"dispatch.{report.resolved_method}"),
    )
    tracer.patch_span(session.Session, "verify", "core.verify")
    tracer.patch_span(core, "is_ft_2spanner", "core.lemma31")
    for owner in (verify, service):
        tracer.patch_span(owner, "dijkstra", "graph.dijkstra")
    tracer.patch_span(graph.BaseGraph, "without_vertices", "graph.without_vertices")
    tracer.patch_span(compiled_greedy.CompiledGreedyKernel, "run_edge_ids", "compiled.greedy")

    tracer.patch_span(lp_new, "build_ft2_lp", "two_spanner.build_lp")
    tracer.patch_span(lp_model.LinearProgram, "solve", "lp.solve")
    tracer.patch_span(
        lp_new,
        "solve_with_cuts",
        "lp.cutting_plane",
        after=lambda result, *a, **k: tracer.count("lp.cuts_added", result.cuts_added),
    )
    tracer.patch(
        lp_new,
        "knapsack_cover_oracle",
        lambda factory: functools.wraps(factory)(
            lambda *a, **k: tracer.wrap(factory(*a, **k), "lp.separation")
        ),
    )
    tracer.patch_span(
        approx,
        "round_until_valid",
        "two_spanner.rounding",
        after=lambda result, *a, **k: tracer.count(
            "two_spanner.rounding_attempts", result.attempts
        ),
    )

    tracer.patch_span(service.SpannerService, "apply", "serve.apply")
    tracer.patch_span(
        service.SpannerService,
        "repair",
        "serve.repair",
        after=lambda tier, *a, **k: tier and tracer.count(f"serve.repairs.{tier}"),
    )

    tracer.patch_span(sweep, "run_sweep", "sweep.run")
    tracer.patch_span(
        sweep,
        "load_shard_report",
        "sweep.load",
        after=lambda envelope, path, *a, **k: tracer.count(
            "sweep.envelope_bytes", os.path.getsize(path)
        ),
    )
    tracer.patch_span(experiments, "merge_shard_reports", "sweep.merge")

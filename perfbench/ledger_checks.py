"""Output checks that do not rely on the code under test.

Stretch is measured with networkx shortest paths, never with
``repro.graph.paths`` or ``repro.core.verify``; the Lemma 3.1 condition
is counted with plain set arithmetic. Inputs are plain edge lists
``(u, v, w)`` so nothing here touches repro's graph classes.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Sequence, Set, Tuple

Edge = Tuple[Hashable, Hashable, float]

#: Float slack for distances compared against ``k * w``.
EPS = 1e-9


def not_subgraph(host_edges: Iterable[Edge], spanner_edges: Iterable[Edge], directed: bool) -> int:
    """Spanner edges that are missing from the host or carry another weight."""
    weights: Dict[tuple, float] = {}
    for u, v, w in host_edges:
        weights[(u, v)] = w
        if not directed:
            weights[(v, u)] = w
    return sum(1 for u, v, w in spanner_edges if weights.get((u, v)) != w)


def stretch_violations(
    host_edges: Sequence[Edge],
    spanner_edges: Sequence[Edge],
    vertices: Iterable[Hashable],
    k: float,
    faults: Set[Hashable],
) -> int:
    """Host edges of ``G - F`` whose distance in ``H - F`` exceeds ``k * w``.

    Checking every host edge suffices: a path of host edges each
    stretched at most ``k`` is stretched at most ``k``. Unit-weight hosts
    use networkx's bidirectional BFS, others bidirectional Dijkstra.
    """
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(v for v in vertices if v not in faults)
    h.add_weighted_edges_from(
        (u, v, w) for u, v, w in spanner_edges if u not in faults and v not in faults
    )
    weight = None if all(w == 1.0 for _u, _v, w in host_edges) else "weight"
    bad = 0
    for u, v, w in host_edges:
        if u in faults or v in faults:
            continue
        if h.has_edge(u, v) and h[u][v]["weight"] <= k * w + EPS:
            continue
        try:
            dist = nx.shortest_path_length(h, u, v, weight=weight)
        except nx.NetworkXNoPath:
            bad += 1
            continue
        if dist > k * w + EPS:
            bad += 1
    return bad


def lemma31_violations(
    host_edges: Iterable[Edge], spanner_edges: Iterable[Edge], r: int, directed: bool
) -> int:
    """Host edges neither kept nor covered by ``r + 1`` two-paths (Lemma 3.1)."""
    kept: Set[tuple] = set()
    out: Dict[Hashable, Set[Hashable]] = {}
    into: Dict[Hashable, Set[Hashable]] = {}
    for u, v, _w in spanner_edges:
        kept.add((u, v))
        out.setdefault(u, set()).add(v)
        into.setdefault(v, set()).add(u)
        if not directed:
            kept.add((v, u))
            out.setdefault(v, set()).add(u)
            into.setdefault(u, set()).add(v)
    bad = 0
    for u, v, _w in host_edges:
        if (u, v) in kept:
            continue
        mids = out.get(u, set()) & into.get(v, set())
        mids.discard(u)
        mids.discard(v)
        if len(mids) < r + 1:
            bad += 1
    return bad


def two_spanner_answer_ok(answer: Optional[float], host, u: Hashable, v: Hashable) -> bool:
    """A served 2-spanner distance lies in ``[d_G(u, v), 2 d_G(u, v)]`` on a networkx host."""
    import networkx as nx

    try:
        truth = nx.shortest_path_length(host, u, v, weight="weight")
    except nx.NetworkXNoPath:
        return answer is None
    if answer is None:
        return False
    return truth - EPS <= answer <= 2 * truth + EPS

"""Graph serialization: JSON documents, edge-list text, and DOT export.

A practical library needs a way to persist instances and results; the CLI
(:mod:`repro.cli`) reads and writes these formats. Vertex labels survive a
round trip when they are JSON-representable scalars; tuple vertices (used
by the grid/fabric generators) are encoded as JSON arrays and decoded back
to tuples.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Hashable, List, Mapping, TextIO, Union

from ..errors import GraphError
from .graph import BaseGraph, DiGraph, Graph

Vertex = Hashable

#: Format version stamped into JSON documents.
FORMAT_VERSION = 1


def _encode_vertex(v: Vertex):
    if isinstance(v, tuple):
        return list(_encode_vertex(part) for part in v)
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    raise GraphError(
        f"vertex {v!r} is not JSON-serializable; use scalars or tuples"
    )


def _decode_vertex(v):
    if isinstance(v, list):
        return tuple(_decode_vertex(part) for part in v)
    return v


def graph_to_dict(graph: BaseGraph) -> dict:
    """Serialize a graph to a plain JSON-compatible dict."""
    return {
        "format": "repro-graph",
        "version": FORMAT_VERSION,
        "directed": graph.directed,
        "vertices": [_encode_vertex(v) for v in graph.vertices()],
        "edges": [
            [_encode_vertex(u), _encode_vertex(v), w]
            for u, v, w in graph.edges()
        ],
    }


def graph_from_dict(data: dict) -> BaseGraph:
    """Deserialize a graph written by :func:`graph_to_dict`."""
    if data.get("format") != "repro-graph":
        raise GraphError("not a repro-graph document")
    if data.get("version") != FORMAT_VERSION:
        raise GraphError(
            f"unsupported format version {data.get('version')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    graph: BaseGraph = DiGraph() if data["directed"] else Graph()
    graph.add_vertices(_decode_vertex(v) for v in data["vertices"])
    for u, v, w in data["edges"]:
        graph.add_edge(_decode_vertex(u), _decode_vertex(v), float(w))
    return graph


def dump_json(graph: BaseGraph, path: str) -> None:
    """Write a graph to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(graph_to_dict(graph), handle)


def load_json(path: str) -> BaseGraph:
    """Read a graph from a JSON file written by :func:`dump_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        return graph_from_dict(json.load(handle))


def atomic_write_json(doc: Mapping[str, Any], path: str) -> str:
    """Serialize ``doc`` and move it into place atomically, fsynced.

    The library's one crash-safe writer (shard envelopes, scheduler
    manifests, attempt records, lease heartbeats). The temp file lives in
    the target directory (same filesystem, invisible to the ``*.json``
    globs) and is ``os.replace``d over ``path``, so a writer killed at
    any instant leaves either the old content or the new — never a
    truncated document.
    """
    directory = os.path.dirname(path) or "."
    blob = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        raise
    return path


def dump_edge_list(graph: BaseGraph, handle: TextIO) -> None:
    """Write a whitespace-separated edge list (``u v weight`` per line).

    Only scalar vertex labels without whitespace are supported; a header
    line records directedness and isolated vertices are listed on
    ``# vertex`` lines so they survive the round trip.
    """
    kind = "digraph" if graph.directed else "graph"
    handle.write(f"# repro-edge-list {kind}\n")
    touched = set()
    for u, v, _w in graph.edges():
        touched.add(u)
        touched.add(v)
    for v in graph.vertices():
        if v not in touched:
            handle.write(f"# vertex {v}\n")
    for u, v, w in graph.edges():
        for label in (u, v):
            text = str(label)
            if any(ch.isspace() for ch in text):
                raise GraphError(
                    f"vertex label {label!r} contains whitespace; "
                    "use JSON serialization instead"
                )
        handle.write(f"{u} {v} {w}\n")


def load_edge_list(handle: TextIO) -> BaseGraph:
    """Read a whitespace-separated edge list, tolerantly.

    Accepts files written by :func:`dump_edge_list` and plain corpus edge
    lists from the wild:

    * the ``# repro-edge-list graph|digraph`` header is optional (files
      without one load as undirected);
    * a ``# directed`` comment line before the first edge switches to a
      digraph;
    * blank lines and other ``#`` comments are skipped anywhere;
    * edge lines are ``u v`` or ``u v weight`` (weight defaults to 1.0);
    * ``# vertex LABEL`` records an isolated vertex.

    Vertex labels are parsed as ints when possible, floats next, and kept
    as strings otherwise. Malformed input raises a :class:`GraphError`
    naming the 1-based line number and the offending text.
    """

    def parse_label(text: str):
        for cast in (int, float):
            try:
                return cast(text)
            except ValueError:
                continue
        return text

    def fail(number: int, line: str, why: str) -> None:
        raise GraphError(f"edge list line {number}: {why} (got {line!r})")

    directed = False
    edges: List[tuple] = []
    isolated: List[Vertex] = []
    saw_edges = False
    for number, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comment = line[1:].strip()
            if comment.startswith("repro-edge-list"):
                kind = comment[len("repro-edge-list"):].strip()
                if kind not in ("graph", "digraph"):
                    fail(number, line, "header kind must be 'graph' or 'digraph'")
                if saw_edges:
                    fail(number, line, "header must precede every edge line")
                directed = kind == "digraph"
            elif comment == "directed":
                if saw_edges:
                    fail(number, line, "'# directed' must precede every edge line")
                directed = True
            elif comment.startswith("vertex "):
                isolated.append(parse_label(comment[len("vertex "):]))
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            fail(number, line, "expected 'u v' or 'u v weight'")
        if len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                fail(number, line, f"edge weight must be a number, not {parts[2]!r}")
        else:
            weight = 1.0
        saw_edges = True
        edges.append((number, line, parse_label(parts[0]), parse_label(parts[1]), weight))
    graph: BaseGraph = DiGraph() if directed else Graph()
    graph.add_vertices(isolated)
    for number, line, u, v, weight in edges:
        try:
            graph.add_edge(u, v, weight)
        except GraphError as exc:
            fail(number, line, str(exc))
    return graph


def to_dot(graph: BaseGraph, highlight: Union[BaseGraph, None] = None) -> str:
    """Render the graph in Graphviz DOT, optionally bolding a subgraph.

    ``highlight`` (typically a spanner of ``graph``) marks its edges bold
    red so "what did the algorithm keep" is visible at a glance.
    """
    directed = graph.directed
    name = "digraph" if directed else "graph"
    arrow = "->" if directed else "--"
    lines: List[str] = [f"{name} repro {{"]
    for v in graph.vertices():
        lines.append(f'  "{v}";')
    for u, v, w in graph.edges():
        attrs = [f'label="{w:g}"']
        if highlight is not None and highlight.has_edge(u, v):
            attrs.append("color=red")
            attrs.append("penwidth=2.0")
        lines.append(f'  "{u}" {arrow} "{v}" [{", ".join(attrs)}];')
    lines.append("}")
    return "\n".join(lines)

"""The import contract: ``import repro`` never loads SciPy.

SciPy backs only the clustering kernels (:meth:`CSRGraph.scipy_kernels`)
and the HiGHS LP backend, and importing it costs about 0.3 s — most of a
fresh sweep shard's start-up. It is therefore imported on first use, and
every check here runs in a fresh interpreter so that this process's own
imports cannot mask an eager one. Clustering output must not depend on
whether SciPy is installed: without it the kernels report ``None`` and
the builders fall back to the pure-Python paths, edge-set-identically.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro
from repro.graph import connected_gnp_graph
from repro.session import Session
from repro.spec import FaultModel, SpannerSpec

#: Prints the sorted spanner edge list of a thorup-zwick build on the
#: shared host as one JSON line.
TZ_BUILD = (
    "from repro.graph import connected_gnp_graph\n"
    "from repro.session import Session\n"
    "from repro.spec import SpannerSpec\n"
    "host = connected_gnp_graph(60, 0.1, seed=3)\n"
    "report = Session().build(\n"
    "    SpannerSpec('thorup-zwick', stretch=5, seed=7), graph=host)\n"
    "assert report.resolved_method == 'csr', report.resolved_method\n"
    "print(json.dumps(sorted([u, v, w] for u, v, w in report.spanner.edges())))\n"
)

SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def _run(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_repro_loads_no_scipy():
    out = _run(
        "import repro, repro.cli\n"
        f"print({SCIPY_LOADED})\n"
    )
    assert out.strip() == "False"


def test_theorem21_build_loads_no_scipy():
    out = _run(
        "from repro.graph import connected_gnp_graph\n"
        "from repro.session import Session\n"
        "from repro.spec import FaultModel, SpannerSpec\n"
        "host = connected_gnp_graph(60, 0.1, seed=3)\n"
        "spec = SpannerSpec('theorem21', stretch=3,\n"
        "                   faults=FaultModel.vertex(1), seed=1)\n"
        "report = Session().build(spec, graph=host)\n"
        "print(report.size)\n"
        f"print({SCIPY_LOADED})\n"
    )
    size, loaded = out.split()
    assert loaded == "False"
    spec = SpannerSpec("theorem21", stretch=3, faults=FaultModel.vertex(1), seed=1)
    host = connected_gnp_graph(60, 0.1, seed=3)
    assert int(size) == Session().build(spec, graph=host).size


def _tz_edges_in_process():
    host = connected_gnp_graph(60, 0.1, seed=3)
    report = Session().build(
        SpannerSpec("thorup-zwick", stretch=5, seed=7), graph=host
    )
    return sorted([u, v, w] for u, v, w in report.spanner.edges())


def test_clustering_build_loads_scipy_on_demand():
    out = _run(TZ_BUILD + f"print({SCIPY_LOADED})\n")
    edges, loaded = out.splitlines()
    assert loaded == "True"
    assert json.loads(edges) == _tz_edges_in_process()


def test_clustering_build_without_scipy_is_identical():
    with_scipy = _run(TZ_BUILD)
    without = _run(
        "sys.modules['scipy'] = None  # any scipy import now fails\n"
        "from repro.graph import connected_gnp_graph\n"
        "from repro.graph.csr import CSRGraph\n"
        "snap = CSRGraph.from_graph(connected_gnp_graph(60, 0.1, seed=3))\n"
        "assert snap.scipy_kernels() is None\n"
        + TZ_BUILD
    )
    assert without == with_scipy
    assert json.loads(without) == _tz_edges_in_process()

"""Tests for the benchmark's own helpers (no library import needed).

Run with ``python -m pytest perfbench/test_ledger.py -q``.
"""

from __future__ import annotations

import json
import os

import pytest

from ledger_checks import lemma31_violations, not_subgraph, stretch_violations
from ledger_stats import FailureLedger, failed_frac, median, tail
from ledger_trace import Span, Tracer, layer_totals, self_times, unit_coverage

HERE = os.path.dirname(os.path.abspath(__file__))


# -- the tail-percentile rule ------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(100, 0, -1))  # unsorted on purpose
    t = tail(values)
    assert t["rank"] == 90 and t["count"] == 100
    assert t["value"] == 90
    assert sum(1 for v in values if v > t["value"]) == 10
    assert t["percentile"] == pytest.approx(90.0)


def test_tail_needs_eleven_samples():
    assert tail(list(range(10))) is None
    t = tail([5.0] * 3 + list(range(8)))
    assert t["rank"] == 1 and t["count"] == 11


def test_tail_percentile_grows_with_samples():
    assert tail(range(1000))["percentile"] == pytest.approx(99.0)
    assert tail(range(20))["percentile"] == pytest.approx(50.0)


def test_median_of_nothing_is_none():
    assert median([]) is None
    assert median([3.0, 1.0, 2.0]) == 2.0


# -- self-time subtraction ---------------------------------------------------


def _spans(*rows):
    return [Span(name, start, end, parent, "u") for name, start, end, parent in rows]


def test_self_time_subtracts_direct_children_only():
    spans = _spans(
        ("unit", 0.0, 10.0, -1),
        ("build", 1.0, 7.0, 0),
        ("kernel", 2.0, 5.0, 1),  # grandchild: counts against build, not unit
        ("verify", 7.0, 9.5, 0),
    )
    assert self_times(spans) == pytest.approx([1.5, 3.0, 3.0, 2.5])
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = _spans(
        ("unit", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 5.0, 0),  # overlaps a by one second
        ("c", 8.0, 12.0, 0),  # runs past its parent: clipped to [8, 10]
    )
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 2.0)


def test_tracer_records_nested_spans_and_totals():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "graph.dijkstra")
    outer = tracer.wrap(lambda: inner() or inner(), "core.verify")
    with tracer.unit(7):
        outer()
    names = [(s.name, s.parent, s.unit) for s in tracer.spans]
    assert names == [
        ("unit", -1, 7),
        ("core.verify", 0, 7),
        ("graph.dijkstra", 1, 7),
        ("graph.dijkstra", 1, 7),
    ]
    totals = layer_totals(tracer.spans)
    assert totals["graph.dijkstra"]["calls"] == 2
    assert totals["graph.dijkstra"]["self_s"] == pytest.approx(2.0)
    assert totals["core.verify"]["self_s"] == pytest.approx(5.0 - 2.0)
    wall, share = unit_coverage(tracer.spans)[7]
    assert wall == pytest.approx(7.0)
    assert share == pytest.approx(5.0 / 7.0)


def test_patch_and_restore_put_the_original_back():
    class Owner:
        def method(self):
            return 41

    original = Owner.__dict__["method"]
    tracer = Tracer()
    tracer.patch_span(Owner, "method", "owner.method", after=lambda r, *a: tracer.count("n", r))
    assert Owner().method() == 41
    assert tracer.counts == {"n": 41}
    assert [s.name for s in tracer.spans] == ["owner.method"]
    tracer.restore()
    assert Owner.__dict__["method"] is original


# -- failed_frac counting ----------------------------------------------------


def test_failed_frac_counts_each_unit_once():
    ledger = FailureLedger()
    for _ in range(8):
        ledger.attempt()
    ledger.fail(2, "raised ValueError")
    ledger.fail(2, "stretch > 3 (networkx)")  # same unit, second reason
    ledger.fail(5, "answered degraded")
    assert ledger.failed == 2
    assert failed_frac(ledger.attempted, ledger.failed) == pytest.approx(0.25)
    assert ledger.reasons == {
        "raised ValueError": 1,
        "stretch > 3 (networkx)": 1,
        "answered degraded": 1,
    }


def test_failed_frac_rejects_bad_counts():
    assert failed_frac(4, 0) == 0.0
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(3, 4)
    ledger = FailureLedger()
    with pytest.raises(ValueError):
        ledger.fail(0, "never attempted")


# -- the independent output checks -------------------------------------------


def test_lemma31_counts_two_paths_with_sets():
    host = [("a", "b", 1.0), ("a", "c", 1.0), ("c", "b", 1.0)]
    spanner = [("a", "c", 1.0), ("c", "b", 1.0)]  # a->b covered by one two-path
    assert lemma31_violations(host, spanner, r=0, directed=True) == 0
    assert lemma31_violations(host, spanner, r=1, directed=True) == 1
    reversed_arcs = [("c", "a", 1.0), ("b", "c", 1.0)]
    assert lemma31_violations(host, reversed_arcs, r=0, directed=True) == 3


def test_stretch_and_subgraph_checks():
    host = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
    spanner = [(0, 1, 1.0), (1, 2, 1.0)]  # the chord 0-2 is stretched to 2
    assert stretch_violations(host, spanner, range(3), k=3, faults=set()) == 0
    assert stretch_violations(host, spanner, range(3), k=1, faults=set()) == 1
    assert stretch_violations(host, spanner, range(3), k=3, faults={1}) == 1
    assert not_subgraph(host, spanner, directed=False) == 0
    assert not_subgraph(host, [(2, 0, 1.0), (0, 1, 2.0)], directed=False) == 1


# -- the machine-speed correction -------------------------------------------


def test_speed_probe_readings_come_from_the_runner_and_rescale_units_locally():
    from run import ProbeServer
    from workloads import REFERENCE_PROBE_MS, SpeedProbe, summarize

    server = ProbeServer()
    server.start()
    probe = SpeedProbe(",".join(map(str, server.child_fds())))
    try:
        assert probe.after_setup() > 0
        assert probe.between_units() == 0 and probe.readings[0] > 0
    finally:
        os.close(server.request_w)
        os.close(server.answer_r)
        server.join(timeout=10)
    assert not server.is_alive()

    ref = REFERENCE_PROBE_MS
    probe.readings = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert probe.scale(0) == 1.0  # median of readings 0..2
    assert probe.scale(4) == 0.5  # median of readings 2..6: half speed
    records = [(0.1, {"primary": 0.05}, 0), (0.1, {"primary": 0.05, "secondary": 0.01}, 6)]
    raw, at_ref = summarize(records, None), summarize(records, probe)
    assert raw["throughput_per_s"] == pytest.approx(10.0)
    assert at_ref["throughput_per_s"] == pytest.approx(2 / 0.15)
    assert at_ref["secondary"] == {"p50": pytest.approx(5.0), "tail": None, "count": 1}


# -- BENCHMARK.json agrees with what the runner prints -----------------------


def test_benchmark_json_names_match_the_runner():
    from run import E2E_KEYS, PER_LAYER_UNITS

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_KEYS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER_UNITS

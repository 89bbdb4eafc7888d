"""Self-time arithmetic, tracer installation, counters, reference scaling
and the metric lists in BENCHMARK.json."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import tracer as tr
import workloads
from reference import Reference, scale

ROOT = Path(__file__).resolve().parents[2]


def _span(name, t0, t1, parent):
    return [name, t0, t1, parent, "w"]


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.child", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert tr.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_takes_union_of_children_clipped_to_parent():
    spans = [
        _span("p", 0.0, 10.0, -1),
        _span("c1", 2.0, 6.0, 0),
        _span("c2", 4.0, 8.0, 0),     # overlaps c1: union is [2, 8]
        _span("c3", 9.0, 12.0, 0),    # runs past the parent: counts [9, 10]
    ]
    assert tr.self_times(spans)[0] == pytest.approx(3.0)


def test_self_time_with_offset_ignores_parents_outside_the_slice():
    spans = [_span("x", 0.0, 5.0, 99), _span("y", 1.0, 2.0, 100)]
    assert tr.self_times(spans, offset=100) == pytest.approx([4.0, 1.0])


def test_tracer_catches_imported_bindings_and_module_globals():
    import sddkit
    from sddkit import bounds, matcore, retina

    original = bounds.inverse_dense
    tracer = tr.Tracer(sddkit)
    tracer.install()
    try:
        assert bounds.inverse_dense is not original
        J = matcore.SymMatrix(np.array([[4.0, 1, 1], [1, 4, 1], [1, 1, 4]]))
        bounds.block_det_ratio(J)
        retina.solve_retina(retina.RetinaProblem(np.array([1.0, 1.2, 1.5, 0.9])))
    finally:
        tracer.uninstall()
    assert bounds.inverse_dense is original
    names = [s[0] for s in tracer.spans]
    root = names.index("bounds.block_det_ratio")
    inverses = [s for s in tracer.spans if s[0] == "matcore.inverse_dense"]
    assert len(inverses) == 2 and all(s[3] == root for s in inverses)
    solve = names.index("retina.solve_retina")
    jac = [s for s in tracer.spans if s[0] == "retina.jacobian"]
    assert jac and all(s[3] == solve for s in jac)
    assert "matcore.SymMatrix" in names
    assert tracer.counters["matcore.inverse_dense.gflop_computed"] == pytest.approx(
        8 * (2 ** 3 + 1 ** 3) / 3e9)
    assert tracer.counters["retina.newton_steps"] == len(jac)


def test_pass_metrics_counts_reports():
    import sddkit
    from sddkit import bounds, matcore

    tracer = tr.Tracer(sddkit)
    tracer.install()
    try:
        J = matcore.SymMatrix(np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]))
        bounds.det_lower_bound(J)
        bounds.varah_bound(J)          # balanced: inapplicable
    finally:
        tracer.uninstall()
    m = tr.pass_metrics(tracer.spans, tracer.counters, 42)
    assert m["bounds.reports"] == 2 and m["bounds.reports_inapplicable"] == 1
    assert m["cli.stdout_bytes"] == 42
    assert set(m) == set(tr.METRICS)


def _pass(**overrides):
    m = {name: 1.0 for name in tr.METRICS}
    m.update(overrides)
    return m


def test_summarize_rejects_counters_that_differ_between_passes():
    with pytest.raises(RuntimeError, match="retina.newton_steps"):
        tr.summarize([_pass(), _pass(**{"retina.newton_steps": 2})], [], 0.1)


def test_summarize_takes_median_of_times():
    out = tr.summarize([_pass(**{"cli.self_s": v}) for v in (1.0, 5.0, 2.0)],
                       [float(v) for v in range(1, 101)], 0.25)
    assert out["cli.self_s"] == 2.0
    assert out["retina.solve_retina.p50_ms"] == 50.5
    assert out["retina.solve_retina.p90_ms"] == pytest.approx(90.1)
    assert out["trace.overhead_frac"] == 0.25


def test_benchmark_json_lists_exactly_the_traced_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tr.METRICS)
    for m in spec["per_layer"]:
        assert m["unit"] == tr.unit(m["name"]) and m["better"] == tr.better(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb", "ok_frac"]


def test_predictions_name_known_metrics_and_workloads():
    pred = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    known = set(tr.METRICS) | {"wall_s", "setup_s", "peak_rss_mb", "ok_frac"}
    for row in pred["predictions"]:
        assert set(row["metrics"]) <= known, row["layer"]
        assert set(row["should_move"]) <= known
        for key in ("on", "no_change_on"):
            assert set(row[key]) <= set(workloads.WORKLOADS)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.build("det-large", seed, str(d))
        workloads.build("limit", seed, str(d))
        return {p.name: p.read_bytes() for p in d.iterdir()}

    assert files(4, "a") == files(4, "b")
    assert files(4, "a2")["graph.edges"] != files(5, "c")["graph.edges"]


def test_limit_graph_shape():
    edges, sizes = workloads.limit_graph(np.random.default_rng(0))
    assert sum(sizes.values()) == workloads.LIMIT_N
    assert sizes["path"] + sizes["star"] == 3 * workloads.LIMIT_N // 4
    assert sizes["path"] % 2 == 1 and sizes["odd_cycle"] % 2 == 1
    assert sum(1 for i, j in edges if i == j) == 1
    assert Counter(len({i, j}) for i, j in edges)[2] == len(edges) - 1


def test_reference_scaling_uses_median_of_nearest_kernel_runs():
    # call k ran between kernel runs k and k + 1; its window is runs k-1..k+2
    refs = [0.01, 0.01, 0.03, 0.03, 0.03, 0.01]
    assert scale([1.0] * 5, refs, 0.01) == pytest.approx([1.0, 0.5, 1 / 3, 1 / 3, 1 / 3])
    half = scale([1.0] * 5, refs, 0.01, 0.5)
    assert half == pytest.approx([1.0, 0.5 ** 0.5, 3 ** -0.5, 3 ** -0.5, 3 ** -0.5])


def test_reference_kernel_runs_every_part():
    parts = ("interpreter", "small_numpy", "formatting", "dense_lu", "trailing_lu",
             "elementwise")
    assert Reference(0.01, 1.0, {p: 1 for p in parts}).time() > 0
    for nominal, elasticity, mix in workloads.REFERENCE.values():
        assert nominal > 0 and 0 < elasticity <= 1 and set(mix) <= set(parts)

"""Span arithmetic and tracer installation."""

import pytest

import tracing
from tracing import Span, layer_metrics, layer_times, self_times


def _tree():
    # cli.main [0, 10]
    #   io.load_edge_list [1, 4]
    #     graph.build_graph [2, 3]
    #   classify.classify [5, 9]
    #     classify.one_vs_all_fields [5.5, 8.5]
    #       solver.solve_iterative [6, 8]
    return [
        Span("cli.main", 0.0, 10.0, None),
        Span("io.load_edge_list", 1.0, 4.0, 0),
        Span("graph.build_graph", 2.0, 3.0, 1),
        Span("classify.classify", 5.0, 9.0, 0),
        Span("classify.one_vs_all_fields", 5.5, 8.5, 3),
        Span("solver.solve_iterative", 6.0, 8.0, 4),
    ]


def test_self_time_is_duration_minus_children():
    assert self_times(_tree()) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])


def test_layer_time_folds_in_children_of_the_same_module():
    # classify.classify keeps its own 1.0 plus one_vs_all_fields' 1.0; the
    # solver child stays with the solver layer
    assert layer_times(_tree()) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 2.0])


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        Span("cli.main", 0.0, 10.0, None),
        Span("graph.transition_apply", 1.0, 5.0, 0),
        Span("graph.transition_apply", 4.0, 6.0, 0),  # overlaps the first
        Span("graph.transition_apply", 9.0, 12.0, 0),  # runs past the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_on_a_hand_built_trace():
    spans = [
        Span("cli.main", 0.0, 20.0, None),
        Span("experiments.run_experiment", 0.5, 19.5, 0),
        Span("experiments._run_one", 1.0, 9.0, 1),
        Span("blockmodel.sbm_generate", 1.0, 4.0, 2),
        Span("graph.build_graph", 2.0, 3.0, 3, attrs={"edges": 50}),
        Span("experiments.sample_seeds", 4.0, 4.5, 2),
        Span("classify.classify", 5.0, 8.0, 2),
        Span("solver.solve_iterative", 5.0, 7.5, 6,
             attrs={"iterations": 100, "capped": True, "final_change": 1e-3,
                    "unknowns": 90, "residual": 2e-3}),
        Span("graph.connected_components", 5.0, 5.5, 7),
        Span("solver.jacobi_sweep", 5.5, 6.5, 7),
        Span("graph.transition_apply", 5.5, 6.0, 9, attrs={"bytes": 1000}),
        Span("experiments.macro_f1", 8.0, 8.6, 2),
        Span("experiments.per_class_f1", 8.1, 8.5, 11),
        Span("experiments._run_one", 10.0, 13.0, 1,
             error="connected component containing node 7 (2 nodes) has no boundary node"),
    ]
    m = layer_metrics(spans)
    assert m["blockmodel.sbm_generate_s"] == pytest.approx(2.0)
    assert m["graph.build_graph_s"] == pytest.approx(1.0)
    assert m["graph.edges"] == 50
    assert m["experiments.sample_seeds_s"] == pytest.approx(0.5)
    assert m["experiments.metrics_s"] == pytest.approx(0.6)
    assert m["classify.self_s"] == pytest.approx(0.5)
    assert m["solver.fields"] == 1
    assert m["solver.iterations"] == 100
    assert m["solver.capped_share"] == 1.0
    assert m["solver.max_residual"] == 2e-3
    assert m["solver.sweep_ms"] == pytest.approx(1000.0)
    assert m["graph.components_calls"] == 1
    assert m["graph.transition_apply_bytes"] == 1000
    assert m["experiments.reps_attempted"] == 2
    assert m["experiments.reps_failed"] == 1
    assert m["experiments.failed_rep_s"] == pytest.approx(3.0)
    assert m["experiments.fields_per_rep"] == 1.0
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert tracing.failure_kinds(spans) == {
        "connected component containing node N (N nodes) has no boundary node": 1
    }
    assert set(m) | {"trace.overhead_share"} == set(tracing.PER_LAYER)


def test_install_rebinds_imported_copies_and_uninstall_restores():
    import numpy as np

    import heatprop.graph
    import heatprop.solver
    from heatprop import build_graph

    original = heatprop.graph.transition_apply
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert heatprop.solver.transition_apply is not original
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        heatprop.solver.transition_apply(g, np.ones(3))
    finally:
        tracer.uninstall()
    assert heatprop.solver.transition_apply is original
    assert heatprop.graph.transition_apply is original
    assert [s.name for s in tracer.spans] == ["graph.transition_apply"]
    assert tracer.spans[0].attrs["bytes"] == 40 * 4 + 32 * 3
    assert tracer.missing == []

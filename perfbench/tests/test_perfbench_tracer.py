"""The layer tracer: install/uninstall identity, span nesting and self time."""

from __future__ import annotations

import inspect
import sys

import pytest

from perfbench.measure import layer_metrics
from perfbench.tracer import REQUEST, SpanLog, Tracer, layer_for, self_times


def _namespace_snapshot():
    """``{(owner name, attribute): value}`` over every repro module and class."""
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        owners = [(name, module)]
        owners += [
            (f"{name}.{value.__qualname__}", value)
            for value in vars(module).values()
            if inspect.isclass(value) and value.__module__ == name
        ]
        for owner_name, owner in owners:
            for attribute, value in vars(owner).items():
                snapshot[(owner_name, attribute)] = value
    return snapshot


def test_install_rebinds_every_alias_and_uninstall_restores_identity():
    import repro.experiments.registry  # noqa: F401 - imports every layer
    import repro.simulation.sampled_campaign as sampled
    import repro.simulation.stats as stats
    import repro.topology.routing as routing

    tracer = Tracer()
    tracer.install()  # imports the remaining layer modules before the snapshot
    tracer.uninstall()
    before = _namespace_snapshot()
    original_seed = stats.derive_trial_seed
    tracer = Tracer()
    try:
        rebound = tracer.install()
        assert rebound > 500
        # Home module and a ``from ... import`` alias share one wrapper.
        assert stats.derive_trial_seed is not original_seed
        assert sampled.derive_trial_seed is stats.derive_trial_seed
        assert stats.derive_trial_seed.__perfbench_original__ is original_seed
        assert routing.bounded_bfs_ball.__perfbench_original__ is not None
        for owner, attribute, original in tracer.rebound():
            wrapper = vars(owner)[attribute]
            assert wrapper is not original
            assert wrapper.__perfbench_original__ is original
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert not tracer.installed
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert stats.derive_trial_seed is original_seed
    assert sampled.derive_trial_seed is original_seed


def test_spans_nest_by_layer_and_stop_after_uninstall():
    from repro.topology.routing import distance_summary
    from repro.topology.star import StarGraph

    graph = StarGraph(4)
    tracer = Tracer()
    tracer.install()
    try:
        import repro.topology.routing as routing

        summary = tracer.request(
            lambda: routing.distance_summary(graph, use_closed_form=False)
        )
    finally:
        tracer.uninstall()
    assert summary == distance_summary(graph, use_closed_form=False)
    spans = {span[0]: span for span in tracer.spans}
    layers = {span_id: tracer.labels[span[2]][0] for span_id, span in spans.items()}
    roots = [span_id for span_id, span in spans.items() if span[1] == 0]
    assert [layers[span_id] for span_id in roots] == [REQUEST]
    bfs = [span_id for span_id, layer in layers.items() if layer == "topology.bfs"]
    assert len(bfs) == graph.num_nodes
    for span_id in bfs:  # bfs <- topology (bfs_distances_from) <- sweep
        parent = spans[span_id][1]
        assert layers[parent] == "topology"
        assert layers[spans[parent][1]] == "topology.sweep"
    assert tracer.counts["topology.bfs.nodes"] == graph.num_nodes**2
    recorded = len(tracer.spans)
    distance_summary(graph, use_closed_form=False)
    assert len(tracer.spans) == recorded


def test_calls_within_one_layer_fold_into_one_span():
    tracer = Tracer()
    tracer.labels += [("outer", "f"), ("outer", "g"), ("other", "h")]

    def h():
        return "h"

    def g():
        return traced_h()

    def f():
        return traced_g() + traced_h()

    traced_h = tracer._wrapper(h, "other", 3, None)
    traced_g = tracer._wrapper(g, "outer", 2, None)
    traced_f = tracer._wrapper(f, "outer", 1, None)
    assert tracer.request(traced_f) == "hh"
    names = [tracer.labels[span[2]][1] for span in tracer.spans]
    assert sorted(names) == ["f", "h", "h", "request"]  # g folded into f
    by_id = {span[0]: span for span in tracer.spans}
    for span in tracer.spans:
        if tracer.labels[span[2]][1] == "h":
            assert tracer.labels[by_id[span[1]][2]][1] == "f"


def _synthetic():
    labels = [(REQUEST, REQUEST), ("x", "a"), ("y", "b"), ("x", "c")]
    spans = SpanLog()
    # request [0, 10] > a [1, 6] > b [2, 3], b [4, 5.5]; request > c [7, 9]
    spans.append(3, 2, 2, 2.0, 3.0)
    spans.append(4, 2, 2, 4.0, 5.5)
    spans.append(2, 1, 1, 1.0, 6.0)
    spans.append(5, 1, 3, 7.0, 9.0)
    spans.append(1, 0, 0, 0.0, 10.0)
    # A second request [20, 21] with no layer spans at all.
    spans.append(6, 0, 0, 20.0, 21.0)
    return spans, labels


def test_self_time_arithmetic_on_synthetic_nested_spans():
    spans, labels = _synthetic()
    totals = self_times(spans, labels)
    assert totals[REQUEST]["self_s"] == pytest.approx(10 - 5 - 2 + 1)
    assert totals["x"]["self_s"] == pytest.approx((5 - 1 - 1.5) + 2)
    assert totals["y"]["self_s"] == pytest.approx(2.5)
    assert totals["x"]["calls"] == 2 and totals["y"]["calls"] == 2
    assert sum(entry["self_s"] for entry in totals.values()) == pytest.approx(11.0)


def test_layer_metrics_account_for_the_whole_traced_wall():
    spans, labels = _synthetic()
    labels = [(REQUEST, REQUEST), ("topology.bfs", "a"), ("simd.run", "b"), ("topology.bfs", "c")]
    metrics = layer_metrics(
        spans, labels, {}, requests=2, runner={"shards": 2}, untraced_wall=10.0
    )
    self_sum = sum(value for name, value in metrics.items() if name.endswith(".self_s"))
    assert self_sum + metrics["unattributed_s"] == pytest.approx(metrics["traced_wall_s"])
    assert metrics["traced_wall_s"] == pytest.approx(11.0 / 2)
    assert metrics["unattributed_s"] == pytest.approx(4.0 / 2)
    assert metrics["topology.bfs.calls"] == 1.0
    assert metrics["trace_overhead_frac"] == pytest.approx(0.1)


def test_layer_map():
    assert layer_for("repro.topology.routing", "bounded_bfs_ball") == "topology.ball"
    assert layer_for("repro.topology.routing", "index_bfs_distances") == "topology.bfs"
    assert layer_for("repro.topology.routing", "distance_summary") == "topology.sweep"
    assert layer_for("repro.topology.star", "StarGraph.distance") == "topology"
    assert layer_for("repro.tables", "build_move_tables") == "permutations"
    assert layer_for("repro.simd.plans", "unit_route_plan") == "simd.plan"
    assert layer_for("repro.simd.programs", "compile_program") == "simd.compile"
    assert layer_for("repro.simd.machine", "SIMDMachine.route_moves") == "simd.run"
    assert layer_for("repro.simd.masks", "mask_indices") == "simd"
    assert layer_for("repro.simulation.stats", "wilson_interval") == "simulation.stats"
    assert layer_for("repro.simulation.campaign", "stretch_campaign") == "simulation"
    assert layer_for("repro.experiments.runner", "run_shards") == "experiments"
    assert layer_for("repro.experiments.cli", "main") is None
    assert layer_for("repro.utils.validation", "check_positive_int") is None

import json

import pytest

import run
import tracing


def test_self_time_subtracts_nested_children():
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (2.0, 3.0, 1), (5.0, 9.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 7.0, 0), (8.0, 8.5, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 0.5)


def test_self_time_clips_children_to_the_parent():
    spans = [(0.0, 5.0, -1), (4.0, 8.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([4.0, 4.0])


def test_group_calls_count_entries_from_outside_the_group():
    rec = lambda name, group, parent, t0, t1: [name, group, "j", parent, t0, t1, 0, None]
    spans = [rec("sample_permutation", "core.sample", -1, 0.0, 4.0),
             rec("sample_points", "core.sample", 0, 1.0, 3.0),
             rec("pattern_count", "patterns.count", -1, 4.0, 5.0)]
    totals = tracing.group_totals(spans)
    assert totals["core.sample"]["calls"] == 1
    assert totals["core.sample"]["self_s"] == pytest.approx(4.0)
    assert totals["patterns.count"]["calls"] == 1


def test_tracer_wraps_the_attributes_callers_resolve(P):
    original = P.optimizer.density_grid_exact_with_grad
    tracer = tracing.Tracer().install()
    try:
        assert P.optimizer.density_grid_exact_with_grad is not original
        tracer.job = "job-1"
        res = P.optimizer.maximize_entropy(P.optimizer.ConstraintSet.of(("12", 0.3)), 16)
    finally:
        tracer.uninstall()
    assert P.optimizer.density_grid_exact_with_grad is original
    names = {s[tracing.NAME] for s in tracer.spans}
    assert {"maximize_entropy", "density_grid_exact_with_grad", "rebalance_marginals"} <= names
    assert {s[tracing.JOB] for s in tracer.spans} == {"job-1"}
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["optimizer.calls"] == 1
    assert layers["optimizer.inner_iters"] == res.iterations
    assert layers["optimizer.evals_per_iter"] >= 1.0
    assert layers["patterns.exact.cells"] == 256 * layers["patterns.exact.calls"]
    root = tracer.spans[0]
    total = sum(tracing.group_totals(tracer.spans)[g]["self_s"]
                for g in tracing.group_totals(tracer.spans))
    assert total == pytest.approx(root[tracing.T1] - root[tracing.T0])


def test_every_per_layer_metric_is_produced():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    produced = set(tracing.layer_metrics([])) | {"optimizer.ref_inner_iters", "trace.overhead_frac",
                                                 "machine.calibration_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced

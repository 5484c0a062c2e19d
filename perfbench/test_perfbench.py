"""Fast tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import outputs  # noqa: E402
import spans  # noqa: E402
import workload  # noqa: E402
from cesaro_lab import Poly, QuadratureSpec, cli, operators, resolvent, verify  # noqa: E402
import cesaro_lab  # noqa: E402


def _span(name, start, end, tid=1):
    return spans.Span(name=name, tid=tid, start=start, end=end)


def test_self_time_of_a_sequential_nest():
    root, child, grandchild = _span("a", 0, 10), _span("b", 2, 5), _span("c", 3, 4)
    root.children.append(child)
    child.children.append(grandchild)
    assert [spans.self_time(s) for s in (root, child, grandchild)] == [7, 2, 1]


def test_self_time_counts_overlapping_children_once():
    parent = _span("check", 0, 10)
    # two pool threads overlap on [3, 4]; the last child outlives its parent
    parent.children += [_span("k", 1, 4, tid=2), _span("k", 3, 6, tid=3), _span("k", 8, 12, tid=2)]
    assert spans.self_time(parent) == pytest.approx(10 - (5 + 2))
    assert spans.covered_length([(0, 1), (5, 4), (0.5, 2)]) == pytest.approx(2)


def test_tracer_catches_calls_through_every_binding(tmp_path):
    p8 = Poly([1.0] * 9)
    p4 = Poly([0.5] * 5)
    # one panel of 16 + ceil((degree + 1) * e^0) Gauss nodes, one S_t each
    quad = QuadratureSpec(time_nodes=16, t_max=2.0, tail_tol=1.0)
    semigroup_nodes = 16 + 5
    tracer = spans.Tracer()
    with tracer:
        cesaro_lab.s_t_apply(0.5, p8)
        operators.s_t_apply(0.5, p8)
        out = tmp_path / "st.csv"
        argv = ["apply", "--op", "composition", "--t", "1.0", "--f", "log-inv", "--degree", "8"]
        assert cli.main(argv + ["--output", str(out)]) == 0
        resolvent.resolvent_semigroup(-1.0, p4, quad)
    for namespace in (cesaro_lab, operators, resolvent, cli, verify):
        assert not hasattr(namespace.s_t_apply, "__wrapped__"), namespace.__name__

    metrics = {k: v for k, (v, _) in spans.layer_metrics(tracer.spans).items()}
    calls = 3 + semigroup_nodes
    assert metrics["operators.s_t_apply.calls"] == calls
    assert metrics["series.compose.calls"] == calls
    assert metrics["operators.s_t_apply.repeat_share"] == pytest.approx(1 / calls)
    assert metrics["resolvent.resolvent_semigroup.time_nodes"] == semigroup_nodes
    assert metrics["cli.main.calls"] == 1
    assert metrics["cli.main.bytes_written"] == out.stat().st_size
    assert not tracer.warnings


def test_pool_calls_nest_under_their_check(monkeypatch):
    monkeypatch.setenv("CESARO_LAB_THREADS", "2")
    p = Poly([1.0, 2.0, 3.0])

    def check():
        return verify._map_ordered(lambda q: operators.cesaro_apply(q), [p] * 4)

    tracer = spans.Tracer()
    with tracer:
        tracer.wrap("verify.check_example", check)()
    (outer,) = [s for s in tracer.spans if s.name == "verify.check_example"]
    children = [c.name for c in outer.children]
    assert children == ["verify.worker_count"] + ["operators.cesaro_apply"] * 4
    metrics = {k: v for k, (v, _) in spans.layer_metrics(tracer.spans).items()}
    assert 0 < metrics["verify.pool.parallelism"]


def test_reference_comparison_tolerances():
    def fields(re, flag=True):
        return {"config": "# config: {}", "re": re, "flag:exact": [flag]}

    ref = fields([1.0, -2.0])
    assert outputs.compare("x.csv", fields([1.0 + 1e-13, -2.0]), ref) == []
    assert outputs.compare("x.csv", fields([1.0, -2.0 + 1e-6]), ref)
    assert outputs.compare("x.csv", fields([1.0, -2.0], flag=False), ref)
    assert outputs.compare("x.csv", dict(fields([1.0, -2.0]), extra=[3.0]), ref) == []
    assert outputs.compare("x.csv", {"re": [1.0, -2.0], "flag:exact": [True]}, ref)
    # the semigroup route's output is held to that route's tolerance
    assert outputs.compare("g.csv", fields([1.0, -2.0 + 1e-7]), ref) == []
    text = outputs.read_text("n=   8  distance 0.123456\n")
    assert text["text"] == "n=   #  distance #\n"
    assert text["number_units"] == [1.0, pytest.approx(1e-6)]
    near = outputs.read_text("n=   8  distance 0.123457\n")
    far = outputs.read_text("n=   8  distance 0.123459\n")
    assert outputs.compare("s", near, text) == []
    assert outputs.compare("s", far, text)


def test_budget_overrun_is_not_a_correctness_failure():
    detail = (
        "integral vs oracle {:.2e}; semigroup vs oracle 8.95e-15 [31.00 s; exceeded 30 s budget]"
    )
    slow = verify.CheckResult("resolvent-routes", False, 31.0, detail.format(1.06e-11))
    wrong = verify.CheckResult("resolvent-routes", False, 31.0, detail.format(2e-8))
    judged = workload.judge_check(slow)
    assert (judged.failed, judged.budget_overrun) == (False, True)
    assert workload.judge_check(wrong).failed
    garbled = verify.CheckResult("norm-inequalities", True, 1.0, "no count here")
    assert workload.judge_check(garbled).failed


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(bench["paths"]) == {HERE.name}
    assert {w["name"] for w in bench["workloads"]} == set(workload.WORKLOADS)
    per_layer = set(spans.layer_metrics([])) | {"trace.pass_s", "trace.overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == per_layer
    end_to_end = {"pass_s", "pass_cpu_s", "peak_rss_mb", "accuracy_digits", "setup_s"}
    assert {m["name"] for m in bench["end_to_end"]} == end_to_end

"""Self-tests of the benchmark: a tiny-scene run of every workload in both
modes, and the span arithmetic on a hand-built tree.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from depthlab import autodiff  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(section: str) -> dict:
    return {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}


def test_catalogue_matches_benchmark_json():
    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert workloads.END_TO_END == _declared("end_to_end")
    assert workloads.per_layer_metrics() == _declared("per_layer")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_emits_every_metric(name, traced, tmp_path):
    if traced:
        result, _, iterations = workloads.measure_traced(name, 3, 0, tmp_path, tiny=True)
        declared = _declared("per_layer")
        assert iterations and iterations[0]
    else:
        result, _ = workloads.measure(name, 3, 0, tmp_path, tiny=True)
        declared = _declared("end_to_end")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {k: unit for k, (unit, _) in declared.items()}
    assert all(better in ("lower", "higher") for _, better in declared.values())
    if not traced:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert vars(autodiff)["conv2d"].__name__ == "conv2d"  # wrappers removed again


def test_train_only_layers_idle_on_eval(tmp_path):
    result, _, _ = workloads.measure_traced("eval_seq", 0, 0, tmp_path, tiny=True)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for layer in ("blocks.decomp", "geometry.warp_frame", "losses.ssim", "autodiff.backward", "optim.adam"):
        assert values[f"{layer}.calls"] == 0


def test_self_time_on_hand_built_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds another b [6, 8];
    # d [11, 14] holds a nested d [12, 13], which must not count twice
    tree = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 5.0, 9.0, 0],
        ["b", 6.0, 8.0, 2],
        ["d", 11.0, 14.0, -1],
        ["d", 12.0, 13.0, 4],
    ]
    totals = spans.layer_totals(tree)
    assert totals["a"] == {"s": 10.0, "self_s": 3.0, "calls": 1}
    assert totals["b"] == {"s": 5.0, "self_s": 5.0, "calls": 2}
    assert totals["c"] == {"s": 4.0, "self_s": 2.0, "calls": 1}
    assert totals["d"] == {"s": 3.0, "self_s": 3.0, "calls": 2}
    assert spans.time_within(tree, "b", "c") == 2.0
    assert spans.time_within(tree, "b", "a") == 5.0


def test_tracer_records_parents_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1, ("inner.units", lambda args, result: result))
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    recorded, counts = tracer.take()
    assert [(s[0], s[3]) for s in recorded] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert counts == {"inner.units": 5}
    assert tracer.take() == ([], {})

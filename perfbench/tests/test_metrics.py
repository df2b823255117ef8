import json
from pathlib import Path

import pytest

import calibrate
import run
import tracing

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_end_to_end_metrics_match_the_declaration():
    ref = calibrate.REFERENCE_S
    result = {"names": ["a", "b"],
              "samples": [{"item": 0, "wall": 1.0, "kernel": ref, "ok": True},
                          {"item": 1, "wall": 0.5, "kernel": ref, "ok": True},
                          {"item": 0, "wall": 9.0, "kernel": ref, "ok": True},
                          {"item": 0, "wall": 4.0, "kernel": 2 * ref, "ok": True}],
              "peak_rss_kb": 2048}
    metrics, _ = run.end_to_end_metrics(result, [(0.3, ref), (0.1, ref), (0.8, 2 * ref)])
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("end_to_end")
    # item 0 counts at the median of its scaled runs 1.0, 9.0 and 4.0 / 2
    assert metrics["throughput_per_s"][0] == pytest.approx(2 / (2.0 + 0.5))
    assert metrics["latency_p50_ms"][0] == pytest.approx(1250)
    assert metrics["latency_tail_ms"][0] == pytest.approx(2000)
    # set-ups scale to 0.3, 0.1 and 0.4
    assert metrics["setup_s"][0] == pytest.approx(0.3)


def test_a_slower_machine_scales_back():
    assert calibrate.scaled(2.0, 2 * calibrate.REFERENCE_S) == pytest.approx(1.0)


def test_layer_metrics_match_the_declaration():
    trace = {"layers": {}, "counts": {}, "form_dim_max": 0, "sweep": {}}
    spec = json.loads(tracing.LAYERS_FILE.read_text(encoding="utf-8"))
    metrics = run.layer_metrics(spec, trace, 1.0, 1.2)
    assert {name: unit for name, (_, unit) in metrics.items()} == declared("per_layer")


def test_tail_needs_ten_samples_beyond():
    assert run.tail([5.0, 1.0]) == (100.0, 5.0)
    pct, value = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == pytest.approx(75.0)

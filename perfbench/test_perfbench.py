"""Tests of the benchmark itself: inputs, statistics, declarations, gates.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.analysis.validate import ProgramValidator  # noqa: E402
from repro.api.types import prediction_from_cost  # noqa: E402

from perfbench import metrics, run, serving, stats, streams, tracing  # noqa: E402

DEFAULT_SEED = 0
HELD_OUT_SEED = 918273


# -- inputs -------------------------------------------------------------


@pytest.mark.parametrize("repeat", [False, True])
def test_same_seed_gives_identical_request_stream(repeat):
    first = streams.Stream(7, repeat=repeat).prefix(120)
    # Generating on demand in another order must not change request i.
    other = streams.Stream(7, repeat=repeat)
    assert other.get(119) == first[119]
    assert other.prefix(120) == first
    assert streams.Stream(8, repeat=repeat).prefix(120) != first


def test_same_seed_gives_identical_pipeline_inputs():
    assert streams.pipeline_inputs(7) == streams.pipeline_inputs(7)
    assert streams.pipeline_inputs(7) != streams.pipeline_inputs(8)
    chosen = streams.pipeline_inputs(7).calibration_workloads
    dynamic = {w.name for w in streams.suite() if w.dynamic_sweeps}
    assert len(chosen) == streams.CALIBRATION_WORKLOADS and set(chosen) <= dynamic


def test_unique_stream_is_distinct_and_half_carries_data():
    requests = streams.Stream(3, repeat=False).prefix(300)
    assert len({request.source for request in requests}) == len(requests)
    share = sum(1 for request in requests if request.data) / len(requests)
    assert 0.35 < share < 0.65
    assert {request.mem_delay for request in requests} == set(streams.MEMORY_DELAYS)


def test_repeat_stream_is_mostly_hot_and_skewed():
    requests = streams.Stream(3, repeat=True).prefix(2000)
    hot = [request for request in requests if request.kind == "hot"]
    fresh = [request for request in requests if request.kind == "fresh"]
    for start in range(0, len(requests), streams.FRESH_EVERY):
        block = requests[start:start + streams.FRESH_EVERY]
        assert sum(1 for request in block if request.kind == "fresh") == 1
    assert len({request.source for request in fresh}) == len(fresh)
    counts = sorted((hot.count(r) for r in set(hot)), reverse=True)
    assert counts[0] > 5 * counts[-1]


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
def test_request_streams_are_fully_admitted(seed):
    validator = ProgramValidator()
    unique = streams.Stream(seed, repeat=False).prefix(250)
    repeat = streams.Stream(seed, repeat=True).prefix(1500)
    sources = {r.source for r in unique} | {r.source for r in repeat}
    rejected = [source for source in sources if not validator.validate(source).ok]
    assert rejected == []


# -- statistics ---------------------------------------------------------


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(list(range(199)), 95)
    assert stats.percentile(list(range(1, 201)), 95) == 190
    assert stats.percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(list(range(19)), 50)


def test_failures_count_as_missing_the_percentile():
    latencies = [1.0] * 180 + [float("inf")] * 20
    assert stats.percentile(latencies, 95) == float("inf")
    assert stats.percentile(latencies, 50) == 1.0


# -- declarations -------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units_are_well_formed():
    names = [m.name for m in metrics.END_TO_END] + [m.name for m in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert all(UNIT.match(unit) for unit in metrics.UNITS.values())
    moved = {m.name for m in metrics.END_TO_END}
    for layer in metrics.PER_LAYER:
        assert layer.moves in moved
        assert layer.on in (*metrics.WORKLOADS, "all")


def test_benchmark_json_matches_declarations():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["workloads"] == [{"name": k, "why": v} for k, v in metrics.WORKLOADS.items()]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_result_metrics_require_every_declared_metric():
    values = {m.name: 1.0 for m in metrics.END_TO_END}
    out = metrics.result_metrics(values, traced=False)
    assert list(out) == [m.name for m in metrics.END_TO_END]
    del values["setup_s"]
    with pytest.raises(KeyError):
        metrics.result_metrics(values, traced=False)


# -- tracing ------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    spans = [
        tracing.Span("root", 0.0, 10.0, 1, None, "r"),
        tracing.Span("a", 1.0, 4.0, 2, 1, "r"),
        tracing.Span("b", 3.0, 6.0, 3, 1, "r"),  # overlaps a
        tracing.Span("c", 4.5, 5.0, 4, 3, "r"),
    ]
    own = tracing.self_times(spans)
    assert own == {1: 5.0, 2: 3.0, 3: 2.5, 4: 0.5}


class _Layer:
    def work(self, value):
        time.sleep(0.001)
        return value * 2


def test_instrument_records_nested_spans_and_restores():
    original = _Layer.__dict__["work"]
    recorder = tracing.Recorder()
    with recorder.instrument([tracing.Target(_Layer, "work", "layer.work")]):
        with recorder.span("request", request="7"):
            assert _Layer().work(3) == 6
    assert _Layer.__dict__["work"] is original
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["layer.work"].parent == by_name["request"].span_id
    assert by_name["layer.work"].request == "7"
    totals = tracing.totals_by_name(recorder.spans)
    assert totals["layer.work"].calls == 1
    assert totals["request"].self_s < totals["request"].total_s


# -- gates --------------------------------------------------------------


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "model.npz")
    serving.write_checkpoint(path)
    return path


def test_parity_gate_trips_on_a_tampered_prediction(checkpoint):
    server = serving.InProcessServer(checkpoint)
    requests = streams.Stream(5, repeat=False).prefix(3)
    replies = [(r, prediction_from_cost(server.predict(r))) for r in requests]
    # Request 1 is served three times, as repeated keys are.
    served = replies + [replies[1], replies[1]]
    assert serving.parity_mismatches(checkpoint, served) == []

    request, prediction = replies[1]
    metric, value = next(iter(prediction.metrics.items()))
    tampered_metrics = dict(prediction.metrics)
    tampered_metrics[metric] = type(value)(value.value + 1, value.confidence, value.beam_values)
    tampered = type(prediction)(metrics=tampered_metrics)
    first = [*served[:1], (request, tampered), *served[2:]]
    mismatches = serving.parity_mismatches(checkpoint, first)
    assert any(metric in m for m in mismatches)

    # A wrong earlier repeat trips the gate too, not only the last reply.
    earlier = [*served[:3], (request, tampered), *served[4:]]
    assert len(serving.parity_mismatches(checkpoint, earlier)) == 1


def test_failed_gate_exits_nonzero_without_a_result(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise metrics.GateFailure("tampered")

    monkeypatch.setattr(serving, "run", fail)
    status = run.main(["--workload", "predict-unique", "--seed", "1", "--seconds", "1"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert "tampered" in captured.err


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

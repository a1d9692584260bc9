"""Declarations and result types shared by the workloads, the runner
and the tests.

``BENCHMARK.json`` at the repository root must declare exactly these
names, units and directions (``test_perfbench`` checks it).  The
``moves``/``on`` fields record, before any optimisation lands, which
end-to-end metric a change to each layer should move and on which
workload; ``README.md`` renders the same map.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: str
    on: str


PREDICT_UNIQUE = "predict-unique"
PREDICT_REPEAT = "predict-repeat"
PIPELINE = "pipeline"

# Closed loop: every caller of /predict in this repository (CLI --remote,
# campaign and DSE runs) waits for its reply before sending the next.
CLIENTS = 2

WORKLOADS = {
    PREDICT_UNIQUE: (
        "/predict, 2 closed-loop clients, every request a distinct generated "
        "program; frontend and model do the work, result hit share 0"
    ),
    PREDICT_REPEAT: (
        "/predict, 2 closed-loop clients, Zipf draws over the 24 suite kernels "
        "plus 1 in 10 fresh; serve caches and batcher queue do the work, "
        "result hit share ~0.9"
    ),
    PIPELINE: (
        "in-process synthesize, profile, train (1B, fwd+bwd), evaluate, DPO "
        "calibrate at a fixed size; EDA, trainer and calibration do the work "
        "and weights change"
    ),
}

END_TO_END = (
    Metric("throughput_ops", "op/s", "higher", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p95_ms", "ms", "lower", 0.25),
    Metric("job_s", "s", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

_P50 = "latency_p50_ms"
_JOB = "job_s"

PER_LAYER = (
    # Frontend: per-request self time on the serve path.
    Layer("lang.parse_ms", "ms", "lower", _P50, PREDICT_UNIQUE),
    Layer("analysis.validate_ms", "ms", "lower", _P50, PREDICT_UNIQUE),
    Layer("analysis.dependence_ms", "ms", "lower", _P50, PREDICT_UNIQUE),
    Layer("core.inputs.bundle_ms", "ms", "lower", _P50, PREDICT_UNIQUE),
    Layer("core.inputs.segments_ms", "ms", "lower", _P50, PREDICT_UNIQUE),
    Layer("tokenizer.tokenize_ms", "ms", "lower", _P50, PREDICT_UNIQUE),
    Layer("serve.engine.build_request_ms", "ms", "lower", _P50, PREDICT_UNIQUE),
    # Model: encoder forward and numeric-head decoding.
    Layer("model.encode_ms", "ms", "lower", _JOB, PIPELINE),
    Layer("model.encode_tok_s", "tok/s", "higher", _JOB, PIPELINE),
    Layer("model.decode_ms", "ms", "lower", _JOB, PIPELINE),
    Layer("serve.engine.predict_ms", "ms", "lower", _P50, PREDICT_UNIQUE),
    # Serve: caches, micro-batcher queue, HTTP and codec.
    Layer("serve.queue_wait_ms", "ms", "lower", _P50, PREDICT_REPEAT),
    Layer("serve.misses_per_flush", "req/flush", "lower", _P50, PREDICT_REPEAT),
    Layer("serve.result_hit_rate", "ratio", "higher", _P50, PREDICT_REPEAT),
    Layer("analysis.cache_hit_rate", "ratio", "higher", _P50, PREDICT_REPEAT),
    Layer("serve.other_ms", "ms", "lower", _P50, PREDICT_REPEAT),
    # Pipeline: data synthesis, EDA profiling, training, evaluation, DPO.
    Layer("datagen.synthesize_s", "s", "lower", _JOB, PIPELINE),
    Layer("datagen.accept_ratio", "ratio", "higher", _JOB, PIPELINE),
    Layer("eval.build_corpus_s", "s", "lower", _JOB, PIPELINE),
    Layer("profiler.profile_ms", "ms", "lower", _JOB, PIPELINE),
    Layer("profiler.static_ms", "ms", "lower", _JOB, PIPELINE),
    Layer("profiler.static_cache_hit_rate", "ratio", "higher", _JOB, PIPELINE),
    Layer("sim.ops_per_s", "op/s", "higher", _JOB, PIPELINE),
    Layer("sim.cycles_total", "cycles", "lower", _JOB, PIPELINE),
    Layer("trainer.train_s", "s", "lower", _JOB, PIPELINE),
    Layer("trainer.tok_s", "tok/s", "higher", _JOB, PIPELINE),
    Layer("trainer.final_loss", "nats", "lower", _JOB, PIPELINE),
    Layer("eval.evaluate_s", "s", "lower", _JOB, PIPELINE),
    Layer("eval.mape_cycles", "%", "lower", _JOB, PIPELINE),
    Layer("eval.mape_static", "%", "lower", _JOB, PIPELINE),
    Layer("calibration.calibrate_s", "s", "lower", _JOB, PIPELINE),
    Layer("calibration.observe_ms", "ms", "lower", _JOB, PIPELINE),
    Layer("calibration.mape_cycles_dpo", "%", "lower", _JOB, PIPELINE),
    # Cost of the traced run itself, on every workload.
    Layer("trace.overhead_pct", "%", "lower", _JOB, "all"),
)

UNITS = {metric.name: metric.unit for metric in (*END_TO_END, *PER_LAYER)}


def result_metrics(values: dict[str, float], traced: bool) -> dict:
    """The ``metrics`` object of the result line: every declared metric
    of the run's kind, in declaration order, with its unit."""
    names = [m.name for m in (PER_LAYER if traced else END_TO_END)]
    missing = [name for name in names if name not in values]
    if missing:
        raise KeyError(f"run produced no value for {missing}")
    return {name: {"value": values[name], "unit": UNITS[name]} for name in names}


class GateFailure(RuntimeError):
    """A correctness gate failed: the run publishes no numbers."""


@dataclass
class Phase:
    attempted: int = 0
    succeeded: int = 0
    failed: int = 0

    def count(self, ok: bool) -> None:
        self.attempted += 1
        if ok:
            self.succeeded += 1
        else:
            self.failed += 1


@dataclass
class Result:
    """What one run measured: metric values, per-phase accounting (the
    ``operations`` phase gives the result's attempted and failed), and
    a report of counts and digests printed before the result."""

    operations: str
    metrics: dict[str, float] = field(default_factory=dict)
    phases: dict[str, Phase] = field(default_factory=dict)
    report: dict = field(default_factory=dict)

"""The paper-pipeline workload, in one process.

One pipeline run is five stages at a fixed size:

1. ``DatasetSynthesizer.generate``: 4 AST, 6 dataflow and 2 mutated
   programs, each profiled (compiled simulator);
2. ``EvaluationHarness.build_corpus``: one hardware and one input
   variant of each of the 24 suite kernels, profiled serially;
3. ``train_models``: the ``ours`` cost model at tier 1B, 2 epochs,
   one update per example (forward and backward);
4. ``evaluate``: the held-out default points of the 24 kernels;
5. DPO calibration of 4 seeded workloads, 3 passes over each
   environment, scored at the held-out default-data point.

The run's operations are the training updates; every run starts cold
(fresh harness, static-profile cache and simulator compile cache).
"""

from __future__ import annotations

import copy
import hashlib
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import CalibrationConfig, DynamicCalibrator
from repro.datagen import DatasetSynthesizer, SynthesizerConfig
from repro.eval.harness import EvaluationHarness, HarnessConfig
from repro.eval.metrics import ape
from repro.profiler import Profiler, StaticProfileCache
from repro.sim import clear_compile_cache, program_digest

from .layers import PIPELINE_LAYER_SPANS, PIPELINE_TARGETS, UPDATE_PROBE
from .metrics import GateFailure, Phase, Result
from .stats import median, percentile
from .streams import PipelineInputs, pipeline_inputs, suite
from .tracing import Recorder, totals_by_name, write_chrome_trace

TIER = "1B"  # the harness default
EPOCHS = 2
CALIBRATION_ITERATIONS = 3
PARITY_SAMPLES = 6
SETUP_REPEATS = 3
# Enough updates that the p95 update latency has ten samples beyond it.
MIN_UPDATES = 220
STAGES = ("synthesize", "corpus", "train", "evaluate", "calibrate")


def harness_config(inputs: PipelineInputs) -> HarnessConfig:
    return HarnessConfig(
        synth=SynthesizerConfig(n_ast=4, n_dataflow=6, n_llm=2, seed=inputs.synth_seed),
        tier=TIER,
        train_epochs=EPOCHS,
        neighbors_per_workload=1,
        data_variants_per_workload=1,
        seed=0,
    )


@dataclass
class PipelineRun:
    """Outcome of one pass through the five stages."""

    wall_s: float
    stage_s: dict[str, float]
    update_ms: list[float]
    train_s: float
    digest: str
    cycles_total: int
    accuracy: dict[str, float]
    neighbours: list = field(default_factory=list)
    records: int = 0
    skipped: int = 0


def _label_digest(dataset, neighbours, evaluation, calibration) -> tuple[str, int]:
    """Digest of every ground-truth label the run produced, and the sum
    of their simulated cycles."""
    hasher = hashlib.sha256()
    cycles = 0

    def add(*parts) -> None:
        hasher.update(repr(parts).encode("utf-8"))

    for record in [*dataset.records, *neighbours]:
        costs = record.report.costs.as_dict()
        add(
            program_digest(record.program),
            record.params.describe(),
            sorted((record.data or {}).items()),
            sorted(costs.items()),
            record.report.ops_executed,
        )
        cycles += costs["cycles"]
    for name, actuals in evaluation:
        add(name, sorted(actuals.items()))
        cycles += actuals["cycles"]
    for name, environment_cycles, actual in calibration:
        add(name, environment_cycles, actual)
        cycles += sum(environment_cycles) + actual
    return hasher.hexdigest(), cycles


def run_pipeline(inputs: PipelineInputs, recorder: Recorder, targets) -> PipelineRun:
    """One cold pass through the five stages; stage spans and the
    spans of *targets* land in *recorder*."""
    clear_compile_cache()
    workloads = suite()
    by_name = {workload.name: workload for workload in workloads}
    config = harness_config(inputs)
    harness = EvaluationHarness(config)
    with recorder.instrument(targets), recorder.span("pipeline") as root:
        with recorder.span("stage.synthesize"):
            dataset = DatasetSynthesizer(config.synth).generate()
        with recorder.span("stage.corpus"):
            neighbours = harness.build_corpus(workloads, include_synth=False)
        with recorder.span("stage.train") as train:
            zoo = harness.train_models([*dataset.records, *neighbours], which=("ours",))
        with recorder.span("stage.evaluate"):
            evaluation = harness.evaluate(zoo, workloads)
        with recorder.span("stage.calibrate"):
            calibration = []
            apes = []
            for name in inputs.calibration_workloads:
                workload = by_name[name]
                actual = harness.profile_workload(workload).costs.cycles
                environment = harness.calibration_environment(workload)
                calibrator = DynamicCalibrator(copy.deepcopy(zoo.ours), CalibrationConfig())
                calibrator.run(environment, iterations=CALIBRATION_ITERATIONS)
                bundle = workload.bundle(params=config.eval_params, data=workload.merged_data())
                post = calibrator.predict(bundle, workload.class_i)
                apes.append(ape(post.value, actual))
                calibration.append((name, [cycles for _, cycles, _ in environment], actual))
    rows = evaluation.results["ours"]
    digest, cycles_total = _label_digest(
        dataset,
        neighbours,
        [(name, rows[name].actuals) for name in sorted(rows)],
        calibration,
    )
    stage_s = {}
    for span in recorder.spans:
        if span.name.startswith("stage.") and span.parent == root.span_id:
            stage_s[span.name[len("stage."):]] = span.duration
    starts = sorted(
        span.start
        for span in recorder.spans
        if span.name == "trainer.update" and train.start <= span.start <= train.end
    )
    update_ms = [(b - a) * 1000.0 for a, b in zip(starts, [*starts[1:], train.end])]
    return PipelineRun(
        wall_s=root.duration,
        stage_s=stage_s,
        update_ms=update_ms,
        train_s=train.duration,
        digest=digest,
        cycles_total=cycles_total,
        accuracy={
            "eval.mape_cycles": evaluation.mape_of("ours", "cycles") * 100.0,
            "eval.mape_static": float(
                np.mean([evaluation.mape_of("ours", m) for m in ("power", "area", "ff")])
            ) * 100.0,
            "calibration.mape_cycles_dpo": float(np.mean(apes)) * 100.0,
        },
        neighbours=neighbours,
        records=len(dataset.records),
        skipped=dataset.skipped,
    )


def interp_mismatches(inputs: PipelineInputs, run: PipelineRun) -> list[str]:
    """Re-profile a seeded sample of corpus records with the
    interpreter backend; its labels must equal the compiled ones."""
    config = harness_config(inputs)
    rng = np.random.default_rng(inputs.parity_seed)
    picks = rng.choice(len(run.neighbours), size=min(PARITY_SAMPLES, len(run.neighbours)), replace=False)
    mismatches = []
    for index in sorted(int(i) for i in picks):
        record = run.neighbours[index]
        report = Profiler(
            record.params,
            max_steps=config.max_steps,
            backend="interp",
            static_cache=StaticProfileCache(),
        ).profile(record.program, data=record.data, rng=np.random.default_rng(config.seed))
        if (
            report.costs != record.report.costs
            or report.ops_executed != record.report.ops_executed
        ):
            mismatches.append(
                f"record {index}: interp {report.costs.as_dict()} vs "
                f"compiled {record.report.costs.as_dict()}"
            )
    return mismatches


def set_up(seed: int, import_s: float) -> tuple[PipelineInputs, list[float]]:
    """Imports (already paid, measured once) plus input generation,
    repeated."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = pipeline_inputs(seed)
        suite()
        times.append(import_s + time.perf_counter() - start)
    return inputs, times


def run(seed: int, seconds: float, traced: bool, workdir: str, import_s: float) -> Result:
    result = Result(operations="train_updates")
    inputs, setup_times = set_up(seed, import_s)
    runs: list[PipelineRun] = []
    if traced:
        # Untraced, traced, untraced: the mean of the outer runs cancels
        # a linear drift of machine speed and the first run's warm-up.
        recorder = Recorder()
        runs = [
            run_pipeline(inputs, Recorder(), UPDATE_PROBE),
            run_pipeline(inputs, recorder, PIPELINE_TARGETS),
            run_pipeline(inputs, Recorder(), UPDATE_PROBE),
        ]
        write_chrome_trace(recorder.spans, f"{workdir}/trace-pipeline-{seed}.json")
    else:
        start = time.perf_counter()
        while (
            not runs
            or time.perf_counter() - start < seconds
            or sum(len(r.update_ms) for r in runs) < MIN_UPDATES
        ):
            runs.append(run_pipeline(inputs, Recorder(), UPDATE_PROBE))

    if len({(r.digest, r.cycles_total, tuple(r.accuracy.items())) for r in runs}) > 1:
        raise GateFailure("two runs of the same inputs produced different labels or accuracy")
    interp = interp_mismatches(inputs, runs[0])
    result.phases["interp_parity"] = Phase(PARITY_SAMPLES, PARITY_SAMPLES - len(interp), len(interp))
    if interp:
        raise GateFailure(f"interp and compiled labels differ: {interp[0]}")

    updates = [ms for r in runs for ms in r.update_ms]
    result.phases["train_updates"] = Phase(len(updates), len(updates), 0)
    result.phases["synthesized_programs"] = Phase(
        runs[0].records + runs[0].skipped, runs[0].records, 0
    )
    result.report.update(
        runs=len(runs),
        run_s=[round(r.wall_s, 3) for r in runs],
        stage_s={stage: round(runs[0].stage_s[stage], 3) for stage in STAGES},
        labels_digest=runs[0].digest,
        cycles_total=runs[0].cycles_total,
        accuracy={name: round(value, 4) for name, value in runs[0].accuracy.items()},
        calibration_workloads=list(inputs.calibration_workloads),
        setup_runs_s=[round(value, 4) for value in setup_times],
    )
    if traced:
        result.metrics.update(_traced_layers(runs, recorder))
        return result
    result.metrics.update(
        throughput_ops=len(updates) / sum(r.train_s for r in runs),
        latency_p50_ms=percentile(updates, 50),
        latency_p95_ms=percentile(updates, 95),
        job_s=median([r.wall_s for r in runs]),
        setup_s=median(setup_times),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def _traced_layers(runs: list[PipelineRun], recorder: Recorder) -> dict:
    untraced_s = (runs[0].wall_s + runs[2].wall_s) / 2.0
    traced = runs[1]
    totals = totals_by_name(recorder.spans)
    metrics = {
        metric: totals[name].self_s * 1000.0 for name, metric in PIPELINE_LAYER_SPANS.items()
    }
    encode, static, compute, simulate, train, synthesis = (
        totals[name]
        for name in (
            "model.encode", "profiler.static", "profiler.static_compute",
            "sim.run", "trainer.train", "datagen.synthesize",
        )
    )
    if simulate.attrs["cycles"] != traced.cycles_total:
        raise GateFailure(
            f"simulated cycles {simulate.attrs['cycles']} differ from the "
            f"labels' {traced.cycles_total}"
        )
    metrics.update(
        {
            "model.encode_tok_s": encode.attrs["tokens"] / encode.self_s,
            "datagen.synthesize_s": synthesis.total_s,
            "datagen.accept_ratio": synthesis.attrs["records"]
            / (synthesis.attrs["records"] + synthesis.attrs["skipped"]),
            "eval.build_corpus_s": totals["eval.build_corpus"].total_s,
            "profiler.static_ms": (static.self_s + compute.self_s) * 1000.0,
            "profiler.static_cache_hit_rate": 1.0 - compute.calls / static.calls,
            "sim.ops_per_s": simulate.attrs["ops"] / simulate.total_s,
            "sim.cycles_total": simulate.attrs["cycles"],
            "trainer.train_s": train.total_s,
            "trainer.tok_s": train.attrs["tokens"] / train.total_s,
            "trainer.final_loss": train.attrs["final_loss"],
            "eval.evaluate_s": totals["eval.evaluate"].total_s,
            "calibration.calibrate_s": traced.stage_s["calibrate"],
            "trace.overhead_pct": (traced.wall_s - untraced_s) / untraced_s * 100.0,
            **traced.accuracy,
        }
    )
    return metrics

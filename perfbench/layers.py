"""Which public functions of the program the traced run times.

Each ``Target`` names a function at the module or class where callers
look it up, so patching it catches every call into that layer.  Span
names are the layer names of ``metrics.PER_LAYER`` without the unit.
"""

from __future__ import annotations

from repro import profiler as profiler_module
from repro.analysis import cache as analysis_cache_module
from repro.analysis import validate as validate_module
from repro.analysis.validate import ProgramValidator
from repro.core import CostModel, DynamicCalibrator
from repro.core.numeric_head import DigitClassificationHead
from repro.datagen import DatasetSynthesizer
from repro.eval import harness as harness_module
from repro.eval.harness import EvaluationHarness
from repro.profiler import Profiler
from repro.serve import PredictionEngine
from repro.serve import engine as engine_module
from repro.sim import CompiledSimulator, Interpreter

from .tracing import Target


def _tokens(model: CostModel, bundles) -> int:
    tokenize = getattr(CostModel.tokenize, "__wrapped__", CostModel.tokenize)
    limit = model.encoder.config.max_seq_len
    return sum(min(len(tokenize(model, bundle)), limit) for bundle in bundles)


def _observe_encode_batch(attrs, args, kwargs, result) -> None:
    attrs["tokens"] = _tokens(args[0], args[1] if len(args) > 1 else kwargs["bundles"])


def _observe_encode(attrs, args, kwargs, result) -> None:
    attrs["tokens"] = _tokens(args[0], [args[1] if len(args) > 1 else kwargs["bundle"]])


def _observe_synthesis(attrs, args, kwargs, dataset) -> None:
    attrs["records"] = len(dataset.records)
    attrs["skipped"] = dataset.skipped


def _observe_training(attrs, args, kwargs, history) -> None:
    model, examples = args[0], args[1]
    attrs["tokens"] = _tokens(model, [e.bundle for e in examples]) * len(history.epoch_losses)
    attrs["final_loss"] = history.final_loss


def _observe_simulation(attrs, args, kwargs, result) -> None:
    attrs["ops"] = result.ops_executed
    attrs["cycles"] = result.cycles


MODEL_TARGETS = (
    Target(CostModel, "encode_batch", "model.encode", _observe_encode_batch),
    Target(CostModel, "encode", "model.encode", _observe_encode),
    Target(CostModel, "tokenize", "tokenizer.tokenize"),
    Target(DigitClassificationHead, "predict", "model.decode"),
    Target(DigitClassificationHead, "predict_batch", "model.decode"),
)

SERVE_TARGETS = (
    Target(ProgramValidator, "validate", "analysis.validate"),
    Target(validate_module, "parse", "lang.parse"),
    Target(analysis_cache_module, "parse", "lang.parse"),
    Target(analysis_cache_module, "analyze_dependences", "analysis.dependence"),
    Target(PredictionEngine, "build_request", "serve.engine.build_request"),
    Target(engine_module, "parse", "lang.parse"),
    Target(engine_module, "bundle_from_program", "core.inputs.bundle"),
    Target(engine_module, "class_i_segments", "core.inputs.segments"),
    Target(PredictionEngine, "predict_requests", "serve.engine.predict"),
    *MODEL_TARGETS,
)

# Span name -> metric of self time per request, in ms.
SERVE_LAYER_SPANS = {
    "lang.parse": "lang.parse_ms",
    "analysis.validate": "analysis.validate_ms",
    "analysis.dependence": "analysis.dependence_ms",
    "core.inputs.bundle": "core.inputs.bundle_ms",
    "core.inputs.segments": "core.inputs.segments_ms",
    "tokenizer.tokenize": "tokenizer.tokenize_ms",
    "serve.engine.build_request": "serve.engine.build_request_ms",
    "model.encode": "model.encode_ms",
    "model.decode": "model.decode_ms",
    "serve.engine.predict": "serve.engine.predict_ms",
}

# The probe the untraced pipeline keeps: one span per training update.
UPDATE_PROBE = (Target(CostModel, "loss_batch", "trainer.update"),)

PIPELINE_TARGETS = (
    Target(DatasetSynthesizer, "generate", "datagen.synthesize", _observe_synthesis),
    Target(EvaluationHarness, "build_corpus", "eval.build_corpus"),
    Target(harness_module, "train_cost_model", "trainer.train", _observe_training),
    Target(EvaluationHarness, "evaluate", "eval.evaluate"),
    Target(DynamicCalibrator, "observe", "calibration.observe"),
    Target(Profiler, "profile", "profiler.profile"),
    Target(Profiler, "static_profile", "profiler.static"),
    Target(profiler_module, "compute_static_profile", "profiler.static_compute"),
    Target(CompiledSimulator, "run", "sim.run", _observe_simulation),
    Target(Interpreter, "run", "sim.run", _observe_simulation),
    *UPDATE_PROBE,
    *MODEL_TARGETS,
)

# Span name -> metric of self time per pipeline run, in ms.
PIPELINE_LAYER_SPANS = {
    "model.encode": "model.encode_ms",
    "model.decode": "model.decode_ms",
    "tokenizer.tokenize": "tokenizer.tokenize_ms",
    "profiler.profile": "profiler.profile_ms",
    "calibration.observe": "calibration.observe_ms",
}

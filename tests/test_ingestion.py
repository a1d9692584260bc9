"""One parse per ``/predict``: the ingestion analysis is shared with
request building.

* call counts through the real HTTP server: a unique ``/predict``
  parses once, runs no dependence analysis and builds two operator
  graphs (the validator's and the request inputs'); a repeat parses
  nothing;
* unparsable source fails exactly as before, at the server (400 with
  the parse reason) and at ``engine.predict`` (the parser's exception);
* ``/metrics`` reports the analysis cache the server admits through;
* the engine's request inputs equal the graph-based reference on the
  suite kernels and 200 generated programs, and on-demand dependences
  equal the eager ones.
"""

import sys
import threading

import pytest

from repro.analysis import AnalysisCache, ProgramValidator, analyze_dependences
from repro.core import (
    CostModel,
    LLMulatorConfig,
    bundle_from_program,
    class_i_segments,
)
from repro.datagen import AstGenerator, DataflowGraphGenerator
from repro.errors import ServeError
from repro.hls import HardwareParams
from repro.ir import build_dataflow_graph
from repro.lang import Parser, format_function, parse, to_source
from repro.lang.analysis import OperatorClass, analyze_function
from repro.serve import PredictionEngine, PredictionServer, ServeClient
from repro.sim import describe_data
from repro.tokenizer import ModelInput
from repro.workloads import modern_suite, polybench_suite

PROGRAM = """
void scale(float a[8], float b[8], int n) {
  for (int i = 0; i < n; i++) { b[i] = a[i] * 3.0; }
}
void dataflow(float a[8], float b[8], int n) { scale(a, b, n); }
"""
UNPARSABLE = {
    "parse": "void dataflow(float a[4]) { a[0] = ; }",
    "lex": "void dataflow(float a[4]) { a[0] = 1 $ 2; }",
}


@pytest.fixture(scope="module")
def model():
    return CostModel(LLMulatorConfig(tier="0.5B", seed=0))


@pytest.fixture
def served(model):
    """A fresh engine behind a real HTTP server with its own cache."""
    cache = AnalysisCache()
    server = PredictionServer(
        PredictionEngine.from_model(model), port=0, analysis_cache=cache
    ).start()
    try:
        yield server, ServeClient(server.url, timeout_s=120.0), cache
    finally:
        server.close()


def _count_calls(monkeypatch, function) -> list:
    """Count calls to *function* under every name it is bound to in a
    loaded ``repro`` module."""
    calls: list = []

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def _count_parses(monkeypatch) -> list:
    calls: list = []
    original = Parser.parse_program

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(Parser, "parse_program", counting)
    return calls


class TestServedCounts:
    def test_unique_predict_parses_once_and_skips_dependences(
        self, served, monkeypatch
    ):
        _, client, _ = served
        parses = _count_parses(monkeypatch)
        dependences = _count_calls(monkeypatch, analyze_dependences)
        graphs = _count_calls(monkeypatch, build_dataflow_graph)
        client.predict(PROGRAM, data={"n": 5})
        assert len(parses) == 1
        assert len(dependences) == 0
        assert len(graphs) == 2  # the validator's cross-check, the request inputs'
        parses.clear()
        client.predict(PROGRAM, data={"n": 5})
        assert len(parses) == 0

    @pytest.mark.parametrize("kind", sorted(UNPARSABLE))
    def test_unparsable_source_is_a_400_with_the_parse_reason(self, served, kind):
        _, client, _ = served
        source = UNPARSABLE[kind]
        expected = ProgramValidator().validate(source).reasons()
        assert len(expected) == 1 and expected[0].startswith("error[parse]")
        with pytest.raises(ServeError) as excinfo:
            client.predict(source)
        assert excinfo.value.reasons == expected

    def test_metrics_report_the_injected_cache(self, served):
        server, client, cache = served
        client.predict(PROGRAM, data={"n": 6})
        reported = client.metrics()["collected"]["serve.engine"]["analysis_cache"]
        assert reported == cache.stats_dict()
        # Admission misses, request building hits the same entry.
        assert (reported["misses"], reported["hits"], reported["size"]) == (1, 1, 1)
        assert server.engine.analysis_cache is cache


class TestEngineErrors:
    @pytest.mark.parametrize("kind", sorted(UNPARSABLE))
    def test_engine_predict_raises_the_parser_error(self, model, kind):
        source = UNPARSABLE[kind]
        with pytest.raises(Exception) as reference:
            parse(source)
        engine = PredictionEngine.from_model(model)
        engine.analysis_cache = AnalysisCache()
        for _ in range(2):  # a miss, then a cached unparsable entry
            with pytest.raises(type(reference.value)) as excinfo:
                engine.predict(source)
            assert str(excinfo.value) == str(reference.value)


# -- the shared request inputs against the graph-based reference --------


def _reference(program):
    """Graph text, operator texts and Class I segments with every
    operator classified separately: the reference for inputs that share
    one graph build and its classification."""
    top = build_dataflow_graph(program).graph_function
    operators = [f for f in program.functions if f.name != top]
    segments = tuple(
        f"op{index}"
        for index, func in enumerate(operators)
        if analyze_function(func).operator_class is OperatorClass.CLASS_I
    )
    texts = [format_function(func) for func in operators]
    return format_function(program.function(top)), texts, segments


def _corpus():
    """(source, data) for the suite kernels and 200 generated programs."""
    out = [(w.source, w.merged_data() or None) for w in polybench_suite() + modern_suite()]
    for seed in range(200):
        if seed % 2:
            program, _ = DataflowGraphGenerator(seed=seed).generate_program()
        else:
            program = AstGenerator(seed=seed).generate_program(n_operators=1 + seed % 3)
        top = program.function("dataflow")
        data = {p.name: 8 for p in top.params if not p.type.is_array}
        out.append((to_source(program), data or None))
    return out


@pytest.fixture(scope="module")
def corpus():
    programs = _corpus()
    assert len(programs) == 224
    return programs


def test_shared_request_inputs_match_the_reference(corpus):
    engine = PredictionEngine()
    engine.analysis_cache = AnalysisCache()
    engine.registry.register("default")  # never loaded: no prediction runs
    for source, data in corpus:
        program = parse(source)
        graph_text, op_texts, segments = _reference(program)
        assert tuple(class_i_segments(program)) == segments
        for with_data in (data, None):
            for delay in (2, 5, 10):
                params = HardwareParams(mem_read_delay=delay, mem_write_delay=delay)
                expected = ModelInput(
                    graph_text=graph_text,
                    op_texts=op_texts,
                    params_text=params.describe(),
                    data_text=describe_data(with_data) if with_data else "",
                )
                assert bundle_from_program(program, params=params, data=with_data) == expected
                request = engine.build_request(source, data=with_data, params=params)
                assert (request.bundle, request.segments) == (expected, segments)


def test_on_demand_dependences_match_eager(corpus):
    cache = AnalysisCache()
    for source, _ in corpus:
        eager = {f.name: analyze_dependences(f) for f in parse(source).functions}
        analysis = cache.get(source)
        assert analysis.dependences == eager
        assert analysis.dependences is analysis.dependences  # computed once


def test_lazy_facts_are_computed_once_under_concurrent_readers(monkeypatch):
    dependences = _count_calls(monkeypatch, analyze_dependences)
    validations = []
    original = ProgramValidator.validate
    monkeypatch.setattr(
        ProgramValidator,
        "validate",
        lambda self, program: validations.append(program) or original(self, program),
    )
    readers = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(10):
            analysis = AnalysisCache().get(PROGRAM)
            barrier = threading.Barrier(readers, timeout=30.0)
            seen = []

            def read():
                barrier.wait()
                seen.append((analysis.validation, analysis.dependences))

            threads = [threading.Thread(target=read) for _ in range(readers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            assert len(seen) == readers
            assert all(v is seen[0][0] and d is seen[0][1] for v, d in seen)
            assert len(validations) == round_ + 1
            assert len(dependences) == 2 * (round_ + 1)  # one per function
    finally:
        sys.setswitchinterval(interval)

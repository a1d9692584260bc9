"""The served ``/predict`` workloads.

The system under test is one ``python -m repro serve`` process serving
a checkpoint that set-up writes.  This process is the load generator:
``CLIENTS`` closed-loop threads, each sending its next request only
after the previous reply arrived.  The server runs in its own process
so the client threads never hold its interpreter lock.
"""

from __future__ import annotations

import os
import queue
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.cache import AnalysisCache
from repro.api import PredictJob
from repro.core import CostModel, LLMulatorConfig, bundle_from_program, class_i_segments
from repro.errors import ReproError
from repro.lang import parse
from repro.nn import load_model, save_model
from repro.serve import PredictionEngine, ServeClient

from . import metrics as declared
from .metrics import GateFailure, Phase, Result
from .layers import SERVE_LAYER_SPANS, SERVE_TARGETS
from .stats import MIN_TAIL, median, percentile
from .streams import Request, Stream, hot_set
from .tracing import Recorder, totals_by_name, write_chrome_trace

TIER = "0.5B"  # the `repro serve` default
CHECKPOINT = "serve-0.5B.npz"
SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 30.0
READY_TIMEOUT_S = 60.0
# Completed requests whose wall time is the workload's fixed job.
JOB_REQUESTS = {declared.PREDICT_UNIQUE: 400, declared.PREDICT_REPEAT: 1600}
# Requests generated ahead of the timed phase, per second of run: about
# three times the measured rate (20 and 94 req/s on 2 cores), so that no
# program is generated while the clients are timed.  A run that exhausts
# the prefix ends its timed phase early and says so in its report.
AHEAD_PER_SECOND = {declared.PREDICT_UNIQUE: 60, declared.PREDICT_REPEAT: 300}

WARMUP_PROGRAM = """
void scale(float a[8], float b[8], int n) {
  for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
}
void dataflow(float a[8], float b[8], int n) { scale(a, b, n); }
"""


# -- the server process -------------------------------------------------


class ServerProcess:
    """``python -m repro serve`` on an ephemeral port."""

    def __init__(self, root: str, checkpoint: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--model", checkpoint, "--tier", TIER, "--port", "0",
            ],
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.url = self._wait_ready()

    def _drain(self) -> None:
        for line in self._proc.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_ready(self) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        seen = []
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("server did not start: " + "".join(seen[-5:]))
            seen.append(line)
            if line.startswith("serving on "):
                return line.split()[2]

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._reader.join(timeout=10)


def write_checkpoint(path: str) -> None:
    save_model(CostModel(LLMulatorConfig(tier=TIER, seed=0)), path)


def reference_model(checkpoint: str) -> CostModel:
    model = CostModel(LLMulatorConfig(tier=TIER, seed=0))
    load_model(model, checkpoint)
    return model


def set_up(root: str, workdir: str, phase: Phase) -> tuple[ServerProcess, list[float]]:
    """Checkpoint write, server start and one warm-up request, repeated;
    the last server is kept for the run."""
    checkpoint = os.path.join(workdir, CHECKPOINT)
    times = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        start = time.perf_counter()
        write_checkpoint(checkpoint)
        server = ServerProcess(root, checkpoint)
        try:
            ServeClient(server.url, timeout_s=REQUEST_TIMEOUT_S).predict_job(
                PredictJob(source=WARMUP_PROGRAM)
            )
            phase.count(True)
        except ReproError:
            phase.count(False)
            server.stop()
            raise
        times.append(time.perf_counter() - start)
    return server, times


# -- closed-loop load ---------------------------------------------------


@dataclass
class Outcome:
    index: int
    request: Request
    start: float
    end: float
    prediction: Optional[object] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.prediction is not None


def _job(request: Request) -> PredictJob:
    return PredictJob(source=request.source, data=request.data_dict, params=request.params)


def drive(
    url: str,
    requests: list[Request],
    seconds: float,
    min_requests: int = 0,
    on_completed: Optional[Callable[[int], None]] = None,
) -> tuple[list[Outcome], float, float]:
    """Closed-loop clients over *requests* in order.

    New requests are sent until *seconds* have passed and at least
    *min_requests* were sent, or until *requests* run out; in-flight
    ones complete.  A refused
    (4xx/5xx) or timed-out request is a failed outcome.
    ``on_completed(count)`` runs on the client thread after each
    completion, before that client sends again.
    """
    outcomes: list[Outcome] = []
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter()

    def client() -> None:
        connection = ServeClient(url, timeout_s=REQUEST_TIMEOUT_S)
        while True:
            with lock:
                index = cursor[0]
                if index >= len(requests) or (
                    time.perf_counter() - t0 >= seconds and index >= min_requests
                ):
                    return
                cursor[0] += 1
            request = requests[index]
            begin = time.perf_counter()
            try:
                outcome = Outcome(index, request, begin, 0.0, connection.predict_job(_job(request)))
            except ReproError as exc:
                outcome = Outcome(index, request, begin, 0.0, error=str(exc))
            outcome.end = time.perf_counter()
            with lock:
                outcomes.append(outcome)
                completed = len(outcomes)
            if on_completed is not None:
                on_completed(completed)

    threads = [threading.Thread(target=client) for _ in range(declared.CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcomes.sort(key=lambda outcome: outcome.index)
    return outcomes, t0, max(outcome.end for outcome in outcomes)


# -- /metrics deltas ----------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def serve_deltas(before: dict, after: dict) -> dict[str, float]:
    """Serve-layer numbers of one phase from two ``/metrics`` snapshots."""

    def histogram(snapshot: dict, name: str) -> tuple[float, int]:
        entry = snapshot["histograms"].get(name) or {"sum": 0.0, "count": 0}
        return entry["sum"], entry["count"]

    def collected(snapshot: dict, *path: str) -> float:
        node = snapshot["collected"]
        for key in path:
            node = node.get(key, {}) if isinstance(node, dict) else {}
        return node if isinstance(node, (int, float)) else 0

    def delta(*path: str) -> float:
        return collected(after, *path) - collected(before, *path)

    wait_sum_0, wait_count_0 = histogram(before, "serve.batch.queue_wait_ms")
    wait_sum_1, wait_count_1 = histogram(after, "serve.batch.queue_wait_ms")
    hits = delta("serve.engine", "result_cache", "hits")
    misses = delta("serve.engine", "result_cache", "misses")
    analysis_hits = delta("serve.engine", "analysis_cache", "hits")
    analysis_misses = delta("serve.engine", "analysis_cache", "misses")
    return {
        "serve.queue_wait_ms": _ratio(wait_sum_1 - wait_sum_0, wait_count_1 - wait_count_0),
        "serve.misses_per_flush": _ratio(misses, delta("serve.batching", "batches")),
        "serve.result_hit_rate": _ratio(hits, hits + misses),
        "analysis.cache_hit_rate": _ratio(analysis_hits, analysis_hits + analysis_misses),
    }


def peak_rss_mb(snapshot: dict) -> float:
    return snapshot["collected"]["serve.resource"]["max_rss_kb"] / 1024.0


# -- correctness --------------------------------------------------------


def reference_predictions(checkpoint: str, requests: list[Request]) -> list[dict]:
    """In-process ``CostModel.predict_costs`` of each request on the
    checkpoint: metric -> (value, beam values)."""
    model = reference_model(checkpoint)
    out = []
    for request in requests:
        program = parse(request.source)
        reference = model.predict_costs(
            bundle_from_program(program, params=request.params, data=request.data_dict),
            class_i_segments=class_i_segments(program),
        )
        out.append(
            {m: (p.value, tuple(p.beam_values)) for m, p in reference.per_metric.items()}
        )
    return out


def _served_values(prediction) -> dict:
    return {m: (p.value, tuple(p.beam_values)) for m, p in prediction.metrics.items()}


def parity_mismatches(checkpoint: str, served: list[tuple[Request, object]]) -> list[str]:
    """Served predictions that differ from in-process ``predict_costs``
    on the same checkpoint; *served* lists ``(request, Prediction)``
    pairs in stream order.  Every reply must equal the first reply for
    its request key, and that one must equal ``predict_costs``."""
    first: dict[tuple, tuple[Request, object]] = {}
    mismatches = []
    for request, prediction in served:
        if request.key not in first:
            first[request.key] = (request, prediction)
            continue
        earlier = _served_values(first[request.key][1])
        if _served_values(prediction) != earlier:
            mismatches.append(
                f"{request.name or request.kind}: served two different predictions"
            )
    items = list(first.values())
    references = reference_predictions(checkpoint, [request for request, _ in items])
    for (request, prediction), expected in zip(items, references):
        for metric, (value, beams) in expected.items():
            got = prediction.metrics.get(metric)
            if got is None or got.value != value or tuple(got.beam_values) != beams:
                mismatches.append(
                    f"{request.name or request.kind} {metric}: served "
                    f"{None if got is None else got.value}, in-process {value}"
                )
    return mismatches


# -- traced in-process replay -------------------------------------------


class InProcessServer:
    """The server's per-request work without HTTP, codec or batcher:
    admission check, request build and engine prediction, in the
    order ``PredictionServer.handle_predict`` runs them."""

    def __init__(self, checkpoint: str) -> None:
        self.engine = PredictionEngine()
        self.engine.registry.register("default", path=checkpoint, tier=TIER)
        self.engine.registry.get("default")
        self.analysis = AnalysisCache()

    def predict(self, request: Request):
        self.analysis.validate(request.source).raise_if_invalid("predict rejected at ingestion")
        prepared = self.engine.build_request(
            request.source, data=request.data_dict, params=request.params, model="default"
        )
        return self.engine.predict_requests([prepared])[0]


def replay(
    checkpoint: str,
    warm: list[Request],
    requests: list[tuple[int, Request]],
    recorder: Recorder,
    budget_s: float,
) -> tuple[int, float, float]:
    """Serve each request on two in-process servers, one untraced and
    one traced, alternating which goes first, until the requests run
    out or *budget_s* has passed.  Interleaving keeps slow drifts of
    machine speed out of the tracing overhead.  Each traced request is
    a root span around spans of the layer calls it makes.  Returns the
    count served and the untraced and traced seconds."""
    plain, traced = InProcessServer(checkpoint), InProcessServer(checkpoint)
    for request in warm:
        plain.predict(request)
        traced.predict(request)
    plain_s = traced_s = 0.0
    count = 0
    start = time.perf_counter()
    for index, request in requests:
        if time.perf_counter() - start >= budget_s:
            break
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            begin = time.perf_counter()
            if side == 0:
                plain.predict(request)
                plain_s += time.perf_counter() - begin
            else:
                with recorder.instrument(SERVE_TARGETS):
                    with recorder.span("request", request=str(index)) as root:
                        traced.predict(request)
                traced_s += root.duration
        count += 1
    return count, plain_s, traced_s


# -- the workload -------------------------------------------------------


def run(workload: str, seed: int, seconds: float, traced: bool, root: str, workdir: str) -> Result:
    result = Result(operations="timed")
    phases = result.phases
    job_size = JOB_REQUESTS[workload]
    # Enough samples for p95 to have MIN_TAIL beyond it.
    min_requests = max(job_size, 21 * MIN_TAIL)
    stream = Stream(seed, repeat=workload == declared.PREDICT_REPEAT)
    requests = stream.prefix(max(int(AHEAD_PER_SECOND[workload] * seconds), min_requests))
    warm = hot_set() if stream.repeat else []

    phases["setup"] = Phase()
    server, setup_times = set_up(root, workdir, phases["setup"])
    try:
        client = ServeClient(server.url, timeout_s=REQUEST_TIMEOUT_S)
        start = before = client.metrics()
        if warm:
            warm_outcomes, _, _ = drive(server.url, warm, 0.0, len(warm))
            phases["warm"] = Phase()
            for outcome in warm_outcomes:
                phases["warm"].count(outcome.ok)
            before = client.metrics()
        # Peak RSS grows with the requests served, so it is read after
        # the fixed job, not after however many requests the run fits.
        at_job: dict = {}

        def on_completed(count: int) -> None:
            if count == job_size:
                at_job.update(client.metrics())

        outcomes, t0, t1 = drive(server.url, requests, seconds, min_requests, on_completed)
        after = client.metrics()
    finally:
        server.stop()

    phases["timed"] = timed = Phase()
    for outcome in outcomes:
        timed.count(outcome.ok)
    latencies_ms = [
        (outcome.end - outcome.start) * 1000.0 if outcome.ok else float("inf")
        for outcome in outcomes
    ]
    job_end = max(outcome.end for outcome in outcomes[:job_size])
    deltas = serve_deltas(before, after)
    result.metrics.update(
        throughput_ops=timed.succeeded / (t1 - t0),
        latency_p50_ms=percentile(latencies_ms, 50),
        latency_p95_ms=percentile(latencies_ms, 95),
        job_s=job_end - t0,
        setup_s=median(setup_times),
        peak_rss_mb=peak_rss_mb(at_job),
    )
    data_share = sum(1 for o in outcomes if o.request.data) / len(outcomes)
    result.report.update(
        requests=len(outcomes),
        distinct_programs=len({o.request.source for o in outcomes}),
        stream_exhausted=len(outcomes) == len(requests),
        first_errors=[o.error for o in outcomes if not o.ok][:3],
        data_share=round(data_share, 4),
        result_hit_share=round(deltas["serve.result_hit_rate"], 4),
        serve_deltas={
            "warm": serve_deltas(start, before) if warm else None,
            "timed": {name: round(value, 4) for name, value in deltas.items()},
        },
        setup_runs_s=[round(value, 4) for value in setup_times],
    )

    # Gate: every served prediction equals in-process predict_costs.
    checkpoint = os.path.join(workdir, CHECKPOINT)
    served = [(o.request, o.prediction) for o in outcomes if o.ok]
    mismatches = parity_mismatches(checkpoint, served)
    phases["parity"] = Phase(len(served), len(served) - len(mismatches), len(mismatches))
    if mismatches:
        raise GateFailure(
            f"{len(mismatches)} served predictions differ from in-process "
            f"predict_costs, first: {mismatches[0]}"
        )

    if traced:
        result.metrics.update(deltas)
        result.metrics.update(
            _traced_layers(checkpoint, warm, outcomes, seconds, workdir, workload, seed, result)
        )
    return result


def _traced_layers(checkpoint, warm, outcomes, seconds, workdir, workload, seed, result) -> dict:
    """Per-layer self times of the same requests replayed in-process,
    the client latency not covered by them, and the tracing overhead."""
    served = [(o.index, o.request) for o in outcomes if o.ok]
    recorder = Recorder()
    count, untraced_s, traced_s = replay(checkpoint, warm, served, recorder, seconds * 2 / 3)
    prefix = served[:count]
    write_chrome_trace(recorder.spans, os.path.join(workdir, f"trace-{workload}-{seed}.json"))
    result.phases["replay"] = Phase(len(prefix), len(prefix), 0)

    totals = totals_by_name(recorder.spans)
    per_request = {
        name: totals[name].self_s * 1000.0 / count if name in totals else 0.0
        for name in (*SERVE_LAYER_SPANS, "request")
    }
    layer_metrics = {metric: per_request[span] for span, metric in SERVE_LAYER_SPANS.items()}
    encode = totals.get("model.encode")
    layer_metrics["model.encode_tok_s"] = (
        encode.attrs.get("tokens", 0) / encode.self_s if encode and encode.self_s else 0.0
    )

    client_ms = {o.index: (o.end - o.start) * 1000.0 for o in outcomes}
    request_ms = {
        int(span.request): span.duration * 1000.0
        for span in recorder.spans
        if span.name == "request"
    }
    other = [client_ms[index] - request_ms[index] for index, _ in prefix]
    layer_metrics["serve.other_ms"] = sum(other) / len(other)
    layer_metrics["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0
    result.report["accounting_ms_per_request"] = {
        "client_latency": round(sum(client_ms[i] for i, _ in prefix) / count, 3),
        "layers_self": {name: round(value, 3) for name, value in per_request.items()},
        "serve.other": round(layer_metrics["serve.other_ms"], 3),
        "replayed_requests": count,
    }
    return layer_metrics

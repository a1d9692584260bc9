"""Stdlib HTTP front end for the prediction service.

``ThreadingHTTPServer`` gives one handler thread per connection; every
``/predict`` handler submits its prepared request to the shared
:class:`MicroBatcher` and blocks on the future, so concurrent callers
are transparently coalesced into batched encoder passes.

The handlers are thin adapters over a :class:`repro.api.Session`: each
one decodes the request body into an API job dataclass, lets the
session compute, and encodes the result back.  Two body formats are
accepted on every POST route:

* **versioned** — a :mod:`repro.api.codec` payload (has ``"schema"``);
  the response is the codec encoding of the result dataclass.  This is
  what :meth:`ServeClient.predict_job` speaks.
* **legacy** — the bare field layout (``{"program": ..., "data": ...,
  "params": ..., ...}``); the response keeps the original layout.

Endpoints (JSON in / JSON out):

* ``POST /predict`` — per-metric predictions.
* ``POST /profile`` — ground-truth costs through the shared
  static-profile cache.
* ``POST /explore`` — rank mapping candidates with the warm model.
* ``GET /healthz`` — liveness + registered models.
* ``GET /stats`` — engine, cache and batch-size statistics (legacy
  layout, now re-backed by the unified metrics registry).
* ``GET /metrics`` — the full :mod:`repro.telemetry` registry snapshot.
* ``GET /traces`` / ``GET /traces/<id>`` — buffered trace ids / the
  spans of one trace.
* ``GET /debug/profile?seconds=N`` — sample the live process for N
  seconds and return CPU/peak-memory attributed to the spans that were
  open while the window ran (409 if a window is already sampling).

Ingestion parses each program once.  The server and its engine share
one :class:`~repro.analysis.cache.AnalysisCache` (the one passed as
``analysis_cache``, else the engine's): admission creates the entry,
parsing the source and reading its validation verdict, and
``PredictionEngine.build_request`` takes the AST from the same entry.
Facts are computed on first read, so dependence analysis, which no
route reads, never runs on a request.

Incoming POSTs honour ``X-Repro-Trace-Id`` / ``X-Repro-Span-Id``: the
server-side span joins the client's trace instead of starting its own,
so one trace id spans client → server → engine → batcher.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Optional

from ..core import CostPrediction
from ..errors import ReproError, ServeError
from ..hls import HardwareParams
from ..telemetry import METRICS, TRACER, clock
from ..telemetry.trace import SPAN_ID_HEADER, TRACE_ID_HEADER, SpanContext
from .batching import MicroBatcher
from .engine import PredictionEngine

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..analysis.cache import AnalysisCache
    from ..api.session import Session


def params_from_payload(payload: Optional[dict]) -> HardwareParams:
    """Hardware params from a JSON object (``mem_delay`` sets both
    read and write delay).  Thin wrapper over the shared codec."""
    from ..api.codec import params_from_payload as decode_params

    return decode_params(dict(payload or {}))


def prediction_payload(prediction: CostPrediction) -> dict:
    return {
        metric: {
            "value": pred.value,
            "confidence": round(pred.confidence, 6),
            "beam_values": list(pred.beam_values),
        }
        for metric, pred in prediction.per_metric.items()
    }


class _Handler(BaseHTTPRequestHandler):
    server: "PredictionServer._Http"  # type: ignore[assignment]

    # One request per connection (HTTP/1.0): handler threads never
    # linger on keep-alive sockets, so shutdown drains quickly.

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.owner.verbose:
            super().log_message(format, *args)

    # -- plumbing --------------------------------------------------------

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServeError("request body required")
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        return payload

    # -- routes ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802
        owner = self.server.owner
        if self.path == "/healthz":
            self._send_json(
                200,
                {
                    "status": "ok",
                    "models": owner.engine.registry.names(),
                    "uptime_s": round(clock.now() - owner.started_at, 3),
                },
            )
        elif self.path == "/stats":
            self._send_json(200, owner.stats_payload())
        elif self.path == "/metrics":
            self._send_json(200, METRICS.snapshot())
        elif self.path == "/traces":
            self._send_json(200, {"traces": TRACER.trace_ids()})
        elif self.path.startswith("/debug/profile"):
            self._handle_debug_profile()
        elif self.path.startswith("/traces/"):
            trace_id = self.path[len("/traces/"):]
            spans = TRACER.trace(trace_id)
            if not spans:
                self._send_json(404, {"error": f"unknown trace {trace_id!r}"})
            else:
                self._send_json(
                    200,
                    {
                        "trace_id": trace_id,
                        "spans": [span.as_dict() for span in spans],
                    },
                )
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _handle_debug_profile(self) -> None:
        """``GET /debug/profile?seconds=N`` — run a span-attributed
        resource profile window against the live process and return the
        aggregate (including a Chrome trace of the spans it covered).
        Only one window may sample at a time: a concurrent request gets
        a 409 instead of corrupted attribution."""
        from urllib.parse import parse_qs, urlparse

        from ..errors import ObsError
        from ..obs.resource import profile_window

        query = parse_qs(urlparse(self.path).query)
        try:
            seconds = float(query.get("seconds", ["2.0"])[0])
        except ValueError:
            self._send_json(400, {"error": "'seconds' must be a number"})
            return
        try:
            self._send_json(200, profile_window(seconds))
        except ObsError as exc:
            status = 409 if "already sampling" in str(exc) else 400
            self._send_json(status, {"error": str(exc)})

    def _trace_context(self) -> Optional[SpanContext]:
        """The caller's span context, if it sent trace headers."""
        trace_id = self.headers.get(TRACE_ID_HEADER)
        span_id = self.headers.get(SPAN_ID_HEADER)
        if trace_id and span_id:
            return SpanContext(trace_id=trace_id, span_id=span_id)
        return None

    def do_POST(self) -> None:  # noqa: N802
        owner = self.server.owner
        try:
            payload = self._read_json()
            route = {
                "/predict": owner.handle_predict,
                "/profile": owner.handle_profile,
                "/explore": owner.handle_explore,
            }.get(self.path)
            if route is None:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
                return
            # Joining the client's trace (when headers are present)
            # makes every nested span — session, engine, batcher —
            # share the id the client logged.
            with TRACER.span(
                f"server{self.path}", context=self._trace_context()
            ):
                response = route(payload)
            self._send_json(200, response)
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            owner.engine.stats.errors += 1
            body = {"error": f"{type(exc).__name__}: {exc}"}
            reasons = getattr(exc, "reasons", None)
            if reasons:
                # Structured validation detail: one line per finding, so
                # clients can show why the program was rejected.
                body["reasons"] = list(reasons)
            self._send_json(400, body)
        except Exception as exc:  # pragma: no cover - defensive
            owner.engine.stats.errors += 1
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})


class PredictionServer:
    """The persistent service: session + micro-batcher + HTTP listener."""

    class _Http(ThreadingHTTPServer):
        owner: "PredictionServer"

    def __init__(
        self,
        engine: Optional[PredictionEngine] = None,
        host: str = "127.0.0.1",
        port: int = 8173,
        max_batch: int = 8,
        max_wait_ms: float = 10.0,
        default_model: Optional[str] = None,
        request_timeout_s: float = 120.0,
        verbose: bool = False,
        session: Optional["Session"] = None,
        analysis_cache: Optional["AnalysisCache"] = None,
    ) -> None:
        from ..api.session import Session

        if session is None:
            if engine is None:
                raise ServeError("PredictionServer needs a session or an engine")
            # Engine-only construction keeps the historical contract:
            # requests without "model" go to the checkpoint named
            # "default" (and 400 if none exists), never to an arbitrary
            # sort-order pick from a multi-model registry.
            session = Session(engine=engine, default_model=default_model or "default")
        elif engine is not None and engine is not session.engine:
            raise ServeError("pass either a session or an engine, not both")
        self.session = session
        self.engine = session.engine
        # Admission and request building share one analysis cache, so a
        # /predict parses its program once.  Explicit None check: an
        # empty AnalysisCache is a valid injected cache.
        if analysis_cache is not None:
            self.engine.analysis_cache = analysis_cache
        self.analysis_cache = self.engine.analysis_cache
        self.default_model = default_model or session.default_model
        self.request_timeout_s = request_timeout_s
        self.verbose = verbose
        self.started_at = clock.now()
        self.batcher = MicroBatcher(
            self.engine.predict_requests,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            length_of=self._request_length,
            score_budget=self._score_budget(self.engine, self.default_model),
        )
        self._http = self._Http((host, port), _Handler)
        self._http.owner = self
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._closed = False
        # Absorb this server's stats islands into the unified registry
        # (replace-by-name: a fresh server takes over the slots).
        METRICS.register_collector("serve.engine", self.engine.stats_dict)
        METRICS.register_collector("serve.batching", self.batcher.stats.as_dict)
        from ..obs.resource import process_snapshot

        self._resource_snapshot = process_snapshot
        METRICS.register_collector("serve.resource", process_snapshot)

    def stats_payload(self) -> dict:
        """The legacy ``/stats`` layout, served from the registry's
        collected islands (one poll shared with ``/metrics``)."""
        collected = METRICS.snapshot()["collected"]
        stats = dict(collected.get("serve.engine") or self.engine.stats_dict())
        stats["batching"] = collected.get(
            "serve.batching"
        ) or self.batcher.stats.as_dict()
        return stats

    @staticmethod
    def _score_budget(engine: PredictionEngine, default_model: str) -> Optional[int]:
        """Per-bucket ``batch × seq²`` budget normalized by head count,
        matching the ``_SCORE_BUDGET`` chunking inside ``encode_batch``."""
        from ..core.model import CostModel

        try:
            model = engine.registry.get(default_model)
        except ServeError:
            return None
        return CostModel._SCORE_BUDGET // max(1, model.encoder.config.heads)

    def _request_length(self, request) -> int:
        try:
            model = self.engine.registry.get(request.model)
        except ServeError:
            # Unknown model: bucket by 0; the flush itself raises the
            # real error into the request's future.
            return 0
        limit = model.encoder.config.max_seq_len
        return min(len(model.tokenize(request.bundle)), limit)

    # -- request handling (called from handler threads) ------------------

    @staticmethod
    def _checked_source(payload: dict) -> str:
        source = payload.get("program")
        if not isinstance(source, str) or not source.strip():
            raise ServeError("'program' must be non-empty program source text")
        return source

    def _decode_job(self, payload: dict, kind: str, legacy) -> tuple:
        """One POST body → API job step for every route: versioned codec
        payloads (carrying ``"schema"``) decode through the codec, bare
        legacy layouts through *legacy*.  Returns ``(job, versioned)``.

        Every decoded program is admission-checked through the server's
        analysis cache: invalid programs raise
        :class:`~repro.errors.ValidationError` (a 400 with structured
        ``reasons``) before any simulation or encoding work starts.
        """
        from ..api.codec import from_payload

        if "schema" in payload:
            job = from_payload(payload, expect=kind)
            if not job.source.strip():
                raise ServeError("'program' must be non-empty program source text")
            versioned = True
        else:
            job, versioned = legacy(payload), False
        self.analysis_cache.validate(job.source).raise_if_invalid(
            f"{kind} rejected at ingestion"
        )
        return job, versioned

    def handle_predict(self, payload: dict) -> dict:
        from ..api.codec import to_payload
        from ..api.types import PredictJob, prediction_from_cost

        job, versioned = self._decode_job(
            payload,
            "predict_job",
            lambda p: PredictJob(
                source=self._checked_source(p),
                data=p.get("data") or None,
                params=params_from_payload(p.get("params")),
                model=p.get("model"),
                beam_width=p.get("beam_width"),
            ),
        )
        request = self.engine.build_request(
            job.source,
            data=dict(job.data) if job.data else None,
            params=job.params,
            model=job.model or self.default_model,
            beam_width=job.beam_width,
        )
        # The one server-specific step: route through the shared
        # micro-batcher so concurrent handler threads coalesce into
        # batched encoder passes.
        future = self.batcher.submit(request)
        prediction = future.result(timeout=self.request_timeout_s)
        if versioned:
            return to_payload(
                prediction_from_cost(prediction, model=request.model, label=job.label)
            )
        return {"model": request.model, "predictions": prediction_payload(prediction)}

    def handle_profile(self, payload: dict) -> dict:
        from ..api.codec import to_payload
        from ..api.types import ProfileJob

        job, versioned = self._decode_job(
            payload,
            "profile_job",
            lambda p: ProfileJob(
                source=self._checked_source(p),
                data=p.get("data") or None,
                params=params_from_payload(p.get("params")),
            ),
        )
        # Server policy: the per-request simulation budget is a hard
        # ceiling — client-supplied values may only lower it.
        budget = 2_000_000
        if job.max_steps is not None:
            budget = min(job.max_steps, budget)
        job = dataclasses.replace(job, max_steps=budget)
        report = self.session.profile(job)
        if versioned:
            return to_payload(report)
        return {"costs": report.as_dict()}

    def handle_explore(self, payload: dict) -> dict:
        from ..api.codec import to_payload
        from ..api.types import ExploreJob

        job, versioned = self._decode_job(
            payload,
            "explore_job",
            lambda p: ExploreJob(
                source=self._checked_source(p),
                data=p.get("data") or None,
                unroll_factors=tuple(p.get("unroll") or (1, 2, 4)),
                memory_delays=tuple(p.get("mem_delays") or (10,)),
                max_candidates=int(p.get("max_candidates") or 16),
                verify_top=int(p.get("verify_top") or 0),
                model=p.get("model"),
            ),
        )
        # Resolve the default against the *server's* routing default,
        # matching /predict (the session may have a different one).
        job = dataclasses.replace(job, model=job.model or self.default_model)
        report = self.session.explore(job)
        # Both response shapes come from the one codec encoding, so the
        # candidate row layout cannot drift between them.
        encoded = to_payload(report)
        if versioned:
            return encoded
        return {
            "model": encoded["model"],
            "candidates": encoded["candidates"],
            "cache": encoded["cache_stats"],
        }

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "PredictionServer":
        """Serve in a background thread (tests, benches, embedding)."""
        if self._thread is not None:
            raise ServeError("server already started")
        self._serving = True
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="serve-http", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._serving = True
        try:
            self._http.serve_forever()
        finally:
            self.close()

    def close(self) -> None:
        """Graceful shutdown: stop listening, then drain the batcher."""
        if self._closed:
            return
        self._closed = True
        if self._serving:
            self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.batcher.close(timeout=30.0)
        # Release the registry slots — unless a newer server already
        # replaced them (its collectors must keep serving /metrics).
        for name, fn in (
            ("serve.engine", self.engine.stats_dict),
            ("serve.batching", self.batcher.stats.as_dict),
            ("serve.resource", self._resource_snapshot),
        ):
            if METRICS.collector(name) == fn:
                METRICS.unregister_collector(name)

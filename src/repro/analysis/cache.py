"""Digest-keyed cache of analysis facts.

Mirrors the :class:`repro.profiler.StaticProfileCache` contract —
bounded LRU, thread-safe, hit/miss counters, a process-wide default —
keyed by the program content digest so serve handlers, request
building and campaign cells that see the same program parse it once.

Thread a cache through constructors with an explicit ``None`` check,
never ``cache or GLOBAL_ANALYSIS_CACHE``: ``__len__`` makes an empty
:class:`AnalysisCache` falsy, so the ``or`` form would silently swap an
injected empty cache for the global one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from ..errors import LexError, ParseError
from ..lang import ast, parse
from ..sim import program_digest
from .dependence import DependenceReport, analyze_dependences
from .validate import ProgramValidator, ValidationReport

__all__ = ["AnalysisCache", "GLOBAL_ANALYSIS_CACHE", "ProgramAnalysis"]


class ProgramAnalysis:
    """Everything the analysis layer derives from one program.

    The source is parsed once, when the analysis is made; every other
    fact is derived from that AST on first read and then kept.
    :attr:`validation` and :attr:`dependences` are each computed at most
    once, also under concurrent readers, so a caller pays only for what
    it reads: admission reads the verdict, request building the AST, and
    ``repro analyze`` the dependences.

    Source that does not parse gets an empty placeholder :attr:`program`,
    ``parsed == False`` and a ``parse`` error verdict.
    """

    def __init__(
        self, program: ast.Program | str, digest: Optional[str] = None
    ) -> None:
        self.digest = digest or program_digest(program)
        self.parsed = True
        self._validation: Optional[ValidationReport] = None
        self._dependences: Optional[dict[str, DependenceReport]] = None
        self._lock = threading.Lock()
        if isinstance(program, str):
            try:
                program = parse(program)
            except (LexError, ParseError) as exc:
                self.parsed = False
                self._validation = ValidationReport.parse_failure(exc)
                program = ast.Program(functions=[])
        self.program = program

    @property
    def validation(self) -> ValidationReport:
        if self._validation is None:
            with self._lock:
                if self._validation is None:
                    self._validation = ProgramValidator().validate(self.program)
        return self._validation

    @property
    def dependences(self) -> dict[str, DependenceReport]:
        """Dependence report per function, in program order."""
        if self._dependences is None:
            with self._lock:
                if self._dependences is None:
                    self._dependences = {
                        func.name: analyze_dependences(func)
                        for func in self.program.functions
                    }
        return self._dependences


class AnalysisCache:
    """Bounded LRU of :class:`ProgramAnalysis` keyed by content digest.

    Analysis is a deterministic function of the source text, so sharing
    a cache across threads or subsystems never changes a verdict — it
    only skips recomputation.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self._maxsize = maxsize
        self._entries: "OrderedDict[str, ProgramAnalysis]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self, program: ast.Program | str, digest: Optional[str] = None
    ) -> ProgramAnalysis:
        digest = digest or program_digest(program)
        with self._lock:
            cached = self._entries.get(digest)
            if cached is not None:
                self._entries.move_to_end(digest)
                self.hits += 1
                return cached
            self.misses += 1
        analysis = ProgramAnalysis(program, digest=digest)
        with self._lock:
            self._entries[digest] = analysis
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
        return analysis

    def invalidate(self, digest: str) -> bool:
        """Drop one entry by digest (e.g. a rewrite step's intermediate
        program that will never be ingested again).  Returns True when
        an entry was present."""
        with self._lock:
            return self._entries.pop(digest, None) is not None

    def validate(
        self, program: ast.Program | str, digest: Optional[str] = None
    ) -> ValidationReport:
        return self.get(program, digest=digest).validation

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats_dict(self) -> dict:
        """Counters for observability surfaces (``Session.stats()``,
        the serve ``/stats`` endpoint)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "hit_rate": round(self.hit_rate, 4),
        }


# Process-wide default cache.  Deterministic contents; bounded size.
GLOBAL_ANALYSIS_CACHE = AnalysisCache()

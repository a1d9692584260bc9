"""Seeded workload inputs.

Every input is a pure function of the workload seed: request *i* of a
stream is generated in order from ``(seed, i)``, so two runs with one
seed send identical requests, whatever the interleaving of the client
threads that consume them.  The program under test sees only the
generated requests, never the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.datagen import AstGenerator, DataflowGraphGenerator
from repro.hls import HardwareParams
from repro.lang import to_source
from repro.workloads import modern_suite, polybench_suite

MEMORY_DELAYS = (2, 5, 10)
# Runtime scalars are drawn within +-50% of the synthesizer's base of 8.
SCALAR_RANGE = (4, 12)
# Programs with runtime scalars get data with this probability, so that
# about half of all requests carry data.
DATA_SHARE = 0.65
FRESH_EVERY = 10
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Request:
    """One ``/predict`` request of a stream."""

    source: str
    data: Optional[tuple[tuple[str, int], ...]] = None
    mem_delay: Optional[int] = None
    kind: str = "unique"  # "unique", "hot" or "fresh"
    name: str = ""

    @property
    def data_dict(self) -> Optional[dict[str, int]]:
        return dict(self.data) if self.data else None

    @property
    def params(self) -> Optional[HardwareParams]:
        if self.mem_delay is None:
            return None
        return HardwareParams(mem_read_delay=self.mem_delay, mem_write_delay=self.mem_delay)

    @property
    def key(self) -> tuple:
        """Identity of the prediction: equal keys must predict equal values."""
        return self.source, self.data, self.mem_delay


def suite():
    """The 24 polybench and modern-suite kernels."""
    return polybench_suite() + modern_suite()


def hot_set() -> list[Request]:
    """The suite kernels with their own data and default parameters."""
    return [
        Request(
            source=workload.source,
            data=tuple(sorted(workload.merged_data().items())) or None,
            kind="hot",
            name=workload.name,
        )
        for workload in suite()
    ]


def generated_request(seed: int, index: int) -> Request:
    """Candidate *index* of the seed's generated programs: a dataflow
    graph or an AST-generated operator set wrapped into a dataflow
    program, about half with runtime data, with a drawn memory delay."""
    rng = np.random.default_rng([seed, index])
    sub_seed = int(rng.integers(2**31))
    if rng.random() < 0.5:
        program, _ = DataflowGraphGenerator(seed=sub_seed).generate_program()
    else:
        program = AstGenerator(seed=sub_seed).generate_program(
            n_operators=int(rng.integers(1, 4))
        )
    data = None
    if rng.random() < DATA_SHARE:
        top = program.function("dataflow")
        scalars = [p.name for p in top.params if not p.type.is_array]
        low, high = SCALAR_RANGE
        data = tuple((name, int(rng.integers(low, high + 1))) for name in scalars) or None
    return Request(
        source=to_source(program),
        data=data,
        mem_delay=int(rng.choice(MEMORY_DELAYS)),
        kind="unique",
        name=f"gen-{seed}-{index}",
    )


class Stream:
    """A request stream that generates ahead on demand.

    ``get(i)`` returns the same request for the same ``(seed, i)``
    however far the stream was generated before.
    """

    def __init__(self, seed: int, repeat: bool) -> None:
        self.seed = seed
        self.repeat = repeat
        self._items: list[Request] = []
        self._sources: set[str] = set()
        self._candidate = 0
        self._hot = hot_set() if repeat else []
        if repeat:
            rank_rng = np.random.default_rng([seed, 2**32])
            order = rank_rng.permutation(len(self._hot))
            weights = 1.0 / np.arange(1, len(order) + 1) ** ZIPF_EXPONENT
            self._hot_order = order
            self._hot_cdf = np.cumsum(weights / weights.sum())
            self._sources.update(request.source for request in self._hot)

    def _next_fresh(self) -> Request:
        # Distinct programs only: a repeated source would be a cache hit.
        while True:
            request = generated_request(self.seed, self._candidate)
            self._candidate += 1
            if request.source not in self._sources:
                self._sources.add(request.source)
                return request

    def _next(self) -> Request:
        if not self.repeat:
            return self._next_fresh()
        index = len(self._items)
        # Exactly one fresh program in every block of FRESH_EVERY requests,
        # at a seeded position: the p95 latency falls among the misses,
        # so their share must not vary from run to run.
        block = np.random.default_rng([self.seed, 2**32 + 1, index // FRESH_EVERY])
        if index % FRESH_EVERY == int(block.integers(FRESH_EVERY)):
            fresh = self._next_fresh()
            return Request(fresh.source, fresh.data, fresh.mem_delay, "fresh", fresh.name)
        draw = np.random.default_rng([self.seed, 2**32 + 2, index]).random()
        rank = int(np.searchsorted(self._hot_cdf, draw, side="right"))
        return self._hot[int(self._hot_order[min(rank, len(self._hot) - 1)])]

    def get(self, index: int) -> Request:
        while len(self._items) <= index:
            self._items.append(self._next())
        return self._items[index]

    def prefix(self, count: int) -> list[Request]:
        if count > 0:
            self.get(count - 1)
        return self._items[:count]


@dataclass(frozen=True)
class PipelineInputs:
    """What the pipeline workload receives: the synthesizer seed, the
    calibration workloads, and which corpus records the interpreter
    re-profiles for the simulator parity gate."""

    synth_seed: int
    calibration_workloads: tuple[str, ...]
    parity_seed: int


CALIBRATION_WORKLOADS = 4


def pipeline_inputs(seed: int) -> PipelineInputs:
    rng = np.random.default_rng([seed, 3])
    dynamic = sorted(w.name for w in suite() if w.dynamic_sweeps)
    chosen = rng.choice(len(dynamic), size=CALIBRATION_WORKLOADS, replace=False)
    return PipelineInputs(
        synth_seed=int(rng.integers(2**31)),
        calibration_workloads=tuple(dynamic[int(i)] for i in sorted(chosen)),
        parity_seed=int(rng.integers(2**31)),
    )

"""Order statistics for benchmark samples.

A failed or timed-out operation is recorded as an infinite latency, so
it counts as missing every latency percentile instead of vanishing from
the sample.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

# A percentile is reported only when this many samples lie beyond it.
MIN_TAIL = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile of *values*.

    Refuses (``InsufficientSamples``) unless at least :data:`MIN_TAIL`
    samples lie beyond the returned rank.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q!r}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_TAIL:
        raise InsufficientSamples(
            f"p{q:g} of {len(ordered)} samples leaves {beyond} beyond it; "
            f"need at least {MIN_TAIL}"
        )
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise InsufficientSamples("median of an empty sample")
    return statistics.median(values)


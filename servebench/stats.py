"""Percentiles and the steadiness guards every run must pass."""

from __future__ import annotations

import math
from collections import Counter

#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL = 10
#: Ranks on each side of a percentile that must agree within BOUNDARY_RATIO.
BOUNDARY_SPAN = 0.05
BOUNDARY_RATIO = 2.0


class GuardError(RuntimeError):
    """The run cannot yield a steady figure; it fails instead of reporting."""


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (a value that was actually observed)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return quantile(values, 0.5)


def check_tail(n: int, q: float, name: str) -> None:
    beyond = n - max(1, math.ceil(q * n))
    if beyond < MIN_TAIL:
        raise GuardError(
            f"{name}: only {beyond} of {n} samples lie beyond the "
            f"p{round(q * 100)}; need {MIN_TAIL}"
        )


def check_boundary(samples: list[tuple[float, str]], q: float,
                   name: str) -> None:
    """Fail when the percentile sits on a step between request classes.

    ``samples`` are (latency, class) pairs.  If the latencies
    ``BOUNDARY_SPAN`` of rank below and above the percentile differ by more
    than ``BOUNDARY_RATIO``, a small shift in the class mix moves the
    reported value a lot — the percentile is measuring the mix, not the
    server.
    """
    ordered = sorted(samples)
    n = len(ordered)
    lo_rank = max(1, math.ceil((q - BOUNDARY_SPAN) * n))
    hi_rank = min(n, math.ceil((q + BOUNDARY_SPAN) * n))
    lo, hi = ordered[lo_rank - 1][0], ordered[hi_rank - 1][0]
    if lo <= 0 or hi / lo > BOUNDARY_RATIO:
        mix = Counter(kind for _, kind in ordered[lo_rank - 1:hi_rank])
        raise GuardError(
            f"{name}: p{round(q * 100)} lies on a class boundary "
            f"({lo:.4f}s at p{round((q - BOUNDARY_SPAN) * 100)} vs {hi:.4f}s "
            f"at p{round((q + BOUNDARY_SPAN) * 100)}; classes there: "
            f"{dict(mix)})"
        )

"""Empirical uniform-distribution diagnostics for the half-surd fractional
parts driving the criterion scans.

The sequence inspected is frac(sqrt(2*(4m)^2 - 10*(4m) - 8q + 9) / 2) over
m = 1, 2, ..., computed in fixed point.  The discrepancy statistic is the
sup over bin boundaries of |empirical - uniform|, a lower bound on the true
sup-norm discrepancy but O(N) to evaluate.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from itertools import accumulate, islice

from .criterion import radicands
from .errors import DomainError, GuardError
from .exactarith import DEFAULT_FRACBITS, FixedPointFrac, frac_sqrt_half
from .pell import m_states
from .records import Record

# diag_equidist refuses a sample of more members of M (10,000 take 6-7 s),
# and a longer stride-4 sequence (10^6 terms take about 4 s)
M_SAMPLE_GUARD = 10_000
SAMPLE_GUARD = 10**6


class EquidistReport(Record):
    q: int
    stride: int
    count: int
    bins: int
    fracbits: int
    m_start: int
    histogram: tuple[int, ...]
    discrepancy: float


def frac_y(m: int, q: int, fracbits: int = DEFAULT_FRACBITS) -> FixedPointFrac:
    """Fractional part of sqrt(2m^2 - 10m - 8q + 9)/2 at fracbits precision."""
    dy = radicands(m, q)[0]
    if dy < 0:
        raise DomainError(f"negative radicand at m={m}, q={q}; m below the envelope")
    return frac_sqrt_half(dy, fracbits)


def _first_valid_m(q: int) -> int:
    """Smallest m >= 1 whose whole stride-4 tail keeps the radicand
    non-negative.  At v = 4m the radicand is ((2v - 5)^2 - 7)/2 - 8q,
    increasing in v, so the condition is 8m - 5 >= ceil(sqrt(16q + 7))."""
    root = math.isqrt(max(16 * q + 6, 0)) + 1  # ceil(sqrt(16q + 7)); 1 if that is <= 0
    return (root + 12) // 8  # ceil((5 + root) / 8)


def histogram_discrepancy(
    values: Iterable[int], fracbits: int, bins: int
) -> tuple[tuple[int, ...], float]:
    """Bin fixed-point fractional parts and compute the boundary sup statistic.

    values are numerators over 2**fracbits in [0, 2**fracbits), drawn one at
    a time; there must be at least bins >= 2 of them, which diag_equidist
    checks before any is made.  Returns the per-bin counts (mass sums to the
    number of values) and
    max over k in 1..bins of |(count of first k bins)/N - k/bins|.
    """
    hist = [0] * bins
    for v in values:
        hist[(v * bins) >> fracbits] += 1
    n = sum(hist)
    disc = max(abs(cum / n - k / bins) for k, cum in enumerate(accumulate(hist), 1))
    return tuple(hist), disc


def diag_equidist(q: int, count: int, bins: int, fracbits: int = DEFAULT_FRACBITS,
                  restrict_to_M: bool = False) -> EquidistReport:
    """Histogram and discrepancy of the stride-4 fractional-part sequence,
    streamed: memory does not grow with count.

    With restrict_to_M the sample points are the first `count` members of the
    certified order set M instead (stride reported as 0); with q = 0 their
    fractional parts are exactly 1/2, so all mass lands in the bin holding 1/2.
    Members of M grow geometrically, so that sample costs more than linear
    time, and more than M_SAMPLE_GUARD members raise GuardError; the stride-4
    sequence is linear, and more than SAMPLE_GUARD terms of it raise
    GuardError.  Every refusal comes before any work.
    """
    if bins < 2:
        raise DomainError(f"need at least 2 bins, got {bins}")
    if count < bins:
        raise DomainError(f"need at least as many samples ({count}) as bins ({bins})")
    if restrict_to_M:
        if count > M_SAMPLE_GUARD:
            raise GuardError(f"equidist guard: {count} members of M exceed {M_SAMPLE_GUARD}")
        stride, m_start = 0, next(m_states()).m
        ms: Iterable[int] = (state.m for state in islice(m_states(), count))
    else:
        if count > SAMPLE_GUARD:
            raise GuardError(f"equidist guard: {count} stride-4 terms exceed {SAMPLE_GUARD}")
        stride, m_start = 4, _first_valid_m(q)
        ms = range(stride * m_start, stride * (m_start + count), stride)
    values = (frac_y(m, q, fracbits).value for m in ms)
    hist, disc = histogram_discrepancy(values, fracbits, bins)
    return EquidistReport(q, stride, count, bins, fracbits, m_start, hist, disc)

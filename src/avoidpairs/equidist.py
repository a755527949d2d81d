"""Empirical uniform-distribution diagnostics for the half-surd fractional
parts driving the criterion scans.

The sequence inspected is frac(sqrt(2*(4m)^2 - 10*(4m) - 8q + 9) / 2) over
m = 1, 2, ..., computed in fixed point.  The discrepancy statistic is the
sup over bin boundaries of |empirical - uniform|, a lower bound on the true
sup-norm discrepancy but O(N) to evaluate.
"""

from __future__ import annotations

import math

from .criterion import radicand_dy
from .errors import DomainError
from .exactarith import DEFAULT_FRACBITS, FixedPointFrac, frac_sqrt_half
from .pell import generate_M
from .records import Record


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
    dy = radicand_dy(m, q)
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
    values: list[int], fracbits: int, bins: int
) -> tuple[tuple[int, ...], float]:
    """Bin fixed-point fractional parts and compute the boundary sup statistic.

    values are numerators over 2**fracbits in [0, 2**fracbits).  Returns the
    per-bin counts (mass sums to len(values)) and
    max over k in 1..bins of |(count of first k bins)/N - k/bins|.
    """
    if bins < 2:
        raise DomainError(f"need at least 2 bins, got {bins}")
    if len(values) < bins:
        raise DomainError(f"need at least as many samples ({len(values)}) as bins ({bins})")
    hist = [0] * bins
    for v in values:
        hist[(v * bins) >> fracbits] += 1
    n = len(values)
    disc = 0.0
    cum = 0
    for k in range(1, bins + 1):
        cum += hist[k - 1]
        gap = abs(cum / n - k / bins)
        if gap > disc:
            disc = gap
    return tuple(hist), disc


def diag_equidist(
    q: int,
    count: int,
    bins: int,
    fracbits: int = DEFAULT_FRACBITS,
    restrict_to_M: bool = False,
) -> EquidistReport:
    """Histogram and discrepancy of the stride-4 fractional-part sequence.

    With restrict_to_M the sample points are the first `count` members of the
    certified order set M instead (stride reported as 0); with q = 0 their
    fractional parts are exactly 1/2, so all mass lands in the bin holding 1/2.
    """
    if restrict_to_M:
        ms = generate_M(count)
        values = [frac_y(m, q, fracbits).value for m in ms]
        hist, disc = histogram_discrepancy(values, fracbits, bins)
        return EquidistReport(q, 0, count, bins, fracbits, ms[0], hist, disc)
    stride = 4
    m0 = _first_valid_m(q)
    values = [
        frac_y(stride * (m0 + i), q, fracbits).value for i in range(count)
    ]
    hist, disc = histogram_discrepancy(values, fracbits, bins)
    return EquidistReport(q, stride, count, bins, fracbits, m0, hist, disc)

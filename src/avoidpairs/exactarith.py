"""Exact integer primitives: floor square roots, quadratic-surd floors, and
fixed-point fractional parts of half-surds.

Everything here works on Python ints (arbitrary precision) and never rounds
through floats, so results stay exact at any scan scale.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .records import Record

DEFAULT_FRACBITS = 128


def isqrt(n: int) -> int:
    """Floor square root: the unique s with s*s <= n < (s+1)*(s+1)."""
    if n < 0:
        raise DomainError(f"isqrt requires a non-negative argument, got {n}")
    return math.isqrt(n)


def binom2(x: int) -> int:
    """x choose 2, exactly."""
    if x < 0:
        raise DomainError(f"binom2 requires a non-negative argument, got {x}")
    return x * (x - 1) // 2


def surd_floor(c: int, d: int) -> int:
    """Exact floor((c + sqrt(d)) / 2) for integer c and non-negative integer d.

    Why the integer shortcut (c + isqrt(d)) // 2 is exact: let s = isqrt(d),
    so s <= sqrt(d) < s + 1 and (c + sqrt(d))/2 lies in [(c+s)/2, (c+s+1)/2).
    If c + s is even that interval is [k, k + 1/2) for the integer k = (c+s)/2;
    if c + s is odd it is [k + 1/2, k + 1) for k = (c+s-1)/2.  Neither interval
    contains an integer in its interior, so every real in it has floor k, and
    k = (c + s) // 2 in both parities.  A perfect-square d makes sqrt(d) = s
    the left endpoint of the same interval, so no separate case is needed.
    """
    if d < 0:
        raise DomainError(f"surd_floor requires a non-negative radicand, got {d}")
    return (c + math.isqrt(d)) // 2


class FixedPointFrac(Record):
    """A fixed-point real equal to value / 2**fracbits.

    Fractional parts produced by this module satisfy 0 <= value < 2**fracbits.
    The value is signed so that near-zero diagnostics (asymptotic interval
    endpoints evaluated at small arguments) can dip below zero.
    """

    value: int
    fracbits: int

    def __float__(self) -> float:
        return self.value / (1 << self.fracbits)


def frac_sqrt_half(d: int, fracbits: int = DEFAULT_FRACBITS) -> FixedPointFrac:
    """Fractional part of sqrt(d)/2, truncated to fracbits bits.

    Computes t = isqrt(d * 4**fracbits) = floor(2**fracbits * sqrt(d)), reduces
    it mod 2**(fracbits+1) and halves, which yields a lower bound on the true
    fractional part with error < 2**(1-fracbits).  When sqrt(d)/2 terminates at
    this precision the result is exact; in particular an odd perfect square d
    gives exactly 1/2 and an even one exactly 0.
    """
    if d < 0:
        raise DomainError(f"frac_sqrt_half requires a non-negative radicand, got {d}")
    if fracbits < 1:
        raise DomainError(f"fracbits must be positive, got {fracbits}")
    t = math.isqrt(d << (2 * fracbits))
    r = t & ((1 << (fracbits + 1)) - 1)
    return FixedPointFrac(r >> 1, fracbits)

"""Exact arithmetic primitives: examples, fuzz against multiplication, and a
256-bit fixed-point cross-check for the surd floor."""

import math
import random

import pytest

from avoidpairs.errors import DomainError
from avoidpairs.exactarith import FixedPointFrac, binom2, frac_sqrt_half, isqrt, surd_floor


def test_isqrt_examples():
    assert isqrt(0) == 0
    assert isqrt(2809) == 53
    assert 53 * 53 == 2809
    assert isqrt(3121) == 55
    assert 55 * 55 <= 3121 < 56 * 56


def test_isqrt_rejects_negative():
    with pytest.raises(DomainError):
        isqrt(-1)


def test_isqrt_fuzz_million_samples():
    rng = random.Random(42)
    for _ in range(1_000_000):
        n = rng.getrandbits(rng.randrange(1, 257))
        s = isqrt(n)
        assert s * s <= n < (s + 1) * (s + 1)


def test_binom2_examples():
    assert binom2(0) == 0
    assert binom2(1) == 0
    assert binom2(40) == 780
    with pytest.raises(DomainError):
        binom2(-1)


def test_surd_floor_examples():
    assert surd_floor(5, 2809) == 29
    assert surd_floor(1, 3121) == 28
    assert surd_floor(0, 0) == 0


def test_surd_floor_negative_shift_and_squares():
    # perfect squares fold into the same formula
    assert surd_floor(3, 16) == 3  # (3+4)/2
    assert surd_floor(-9, 4) == -4  # (-9+2)/2 = -3.5 -> -4
    assert surd_floor(-1, 2) == 0  # (-1+1.41)/2 = 0.207


def test_surd_floor_rejects_negative_radicand():
    with pytest.raises(DomainError):
        surd_floor(5, -1)


def _fixed_point_floor(c: int, d: int, fracbits: int = 256) -> int:
    # floor((c + sqrt(d))/2) via truncated fixed point.  num <= 2^fb*(c+sqrt(d))
    # < num+1, and no integer multiple of 2^(fb+1) can separate them (it would
    # be an integer strictly between isqrt(d<<2fb) and its successor).
    num = (c << fracbits) + math.isqrt(d << (2 * fracbits))
    return num >> (fracbits + 1)


def test_surd_floor_against_fixed_point_cross_check():
    rng = random.Random(7)
    for _ in range(100_000):
        c = rng.randint(-(1 << 64), 1 << 64)
        d = rng.getrandbits(rng.randrange(1, 129))
        assert surd_floor(c, d) == _fixed_point_floor(c, d)


def test_frac_sqrt_half_examples():
    fb = 128
    assert frac_sqrt_half(2809, fb) == FixedPointFrac(1 << (fb - 1), fb)  # exactly 1/2
    assert frac_sqrt_half(4, fb) == FixedPointFrac(0, fb)
    assert frac_sqrt_half(95481, fb) == FixedPointFrac(1 << (fb - 1), fb)
    with pytest.raises(DomainError):
        frac_sqrt_half(-1)
    with pytest.raises(DomainError):
        frac_sqrt_half(4, 0)


def test_frac_sqrt_half_range_invariant():
    rng = random.Random(11)
    for _ in range(5000):
        d = rng.getrandbits(rng.randrange(1, 80))
        fr = frac_sqrt_half(d, 64)
        assert 0 <= fr.value < 1 << 64


def test_frac_sqrt_half_is_lower_bound_within_error():
    # against a much finer truncation, the coarse value is a lower bound and
    # within 2^(1-fracbits)
    rng = random.Random(13)
    fb = 48
    for _ in range(2000):
        d = rng.getrandbits(rng.randrange(1, 60))
        coarse = frac_sqrt_half(d, fb).value
        fine = frac_sqrt_half(d, 4 * fb).value
        coarse_scaled = coarse << (3 * fb)
        assert coarse_scaled <= fine < coarse_scaled + (1 << (3 * fb + 1))


def test_frac_sqrt_half_refinement_agrees_to_one_ulp():
    rng = random.Random(17)
    fb = 64
    for _ in range(2000):
        d = rng.getrandbits(rng.randrange(1, 70))
        a = frac_sqrt_half(d, fb).value
        b = frac_sqrt_half(d, 2 * fb).value >> fb
        assert abs(a - b) <= 1

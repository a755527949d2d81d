"""Histogram and discrepancy diagnostics."""

import time
import tracemalloc

import pytest

from avoidpairs import equidist
from avoidpairs.equidist import (
    M_SAMPLE_GUARD,
    SAMPLE_GUARD,
    _first_valid_m,
    diag_equidist,
    frac_y,
    histogram_discrepancy,
)
from avoidpairs.errors import DomainError, GuardError
from avoidpairs.exactarith import FixedPointFrac
from helpers import first_valid_m_walk


def test_histogram_mass_and_bounds():
    report = diag_equidist(0, 2000, 50)
    assert sum(report.histogram) == 2000
    assert 0.0 <= report.discrepancy <= 1.0
    assert report.m_start == 1 and report.stride == 4


def test_constant_sequence_has_near_maximal_discrepancy():
    fb = 64
    bins = 25
    values = [123456] * 500  # a constant landing in bin 0
    hist, disc = histogram_discrepancy(values, fb, bins)
    assert hist[0] == 500 and sum(hist) == 500
    assert abs(disc - (1 - 1 / bins)) < 1e-12


def test_restricted_to_M_all_mass_at_half():
    report = diag_equidist(0, 10, 10, restrict_to_M=True)
    assert report.stride == 0 and report.m_start == 40
    assert report.histogram[10 // 2] == 10
    assert sum(1 for h in report.histogram if h) == 1


def test_discrepancy_shrinks_with_more_samples():
    small = diag_equidist(0, 2000, 40)
    large = diag_equidist(0, 20000, 40)
    assert large.discrepancy < small.discrepancy


def test_nonzero_q_sequences():
    report = diag_equidist(12, 1000, 20)
    assert sum(report.histogram) == 1000
    assert report.discrepancy < 0.1


def test_preconditions():
    with pytest.raises(DomainError):
        diag_equidist(0, 10, 40)  # fewer samples than bins
    with pytest.raises(DomainError):
        diag_equidist(0, 10, 1)  # fewer than 2 bins
    with pytest.raises(DomainError):
        frac_y(1, 50)  # negative radicand


def test_first_valid_m_closed_form_equals_the_walk():
    assert all(_first_valid_m(q) == first_valid_m_walk(q) for q in range(-2000, 2001))


def test_huge_q_starts_without_a_walk():
    start = time.perf_counter()
    report = diag_equidist(10**16, 10, 2)
    assert report.m_start == 50_000_001
    assert time.perf_counter() - start < 1.0


def test_sample_is_streamed():
    # the values are binned as they are made: a held list of 20,000 took 1 MB
    diag_equidist(0, 100, 10)  # first-call imports stay out of the peak
    tracemalloc.start()
    try:
        diag_equidist(0, 20000, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 << 10


def test_sample_over_M_is_guarded_before_any_work():
    start = time.perf_counter()
    with pytest.raises(GuardError):
        diag_equidist(0, M_SAMPLE_GUARD + 1, 10, restrict_to_M=True)
    assert time.perf_counter() - start < 0.1
    # domain refusals come first
    with pytest.raises(DomainError):
        diag_equidist(0, M_SAMPLE_GUARD + 1, 1, restrict_to_M=True)


def test_sample_over_M_admits_the_bound(monkeypatch):
    # the fractional parts of 10,000 members of M take 6-7 s; a constant one
    # leaves the walk along M, whose m mod 4 alternates 0, 1 from m = 40
    residues = []

    def half(m, q, fracbits):
        residues.append(m % 4)
        return FixedPointFrac(1 << fracbits - 1, fracbits)

    monkeypatch.setattr(equidist, "frac_y", half)
    report = diag_equidist(0, M_SAMPLE_GUARD, 10, restrict_to_M=True)
    assert (report.count, report.m_start) == (M_SAMPLE_GUARD, 40)
    assert report.histogram[10 // 2] == M_SAMPLE_GUARD
    assert residues == [0, 1] * (M_SAMPLE_GUARD // 2)


def test_stride_sample_is_guarded_before_any_work(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(GuardError):
        diag_equidist(0, SAMPLE_GUARD + 1, 10)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(DomainError):
        diag_equidist(0, SAMPLE_GUARD + 1, 1)
    # the bound itself is admitted; at 10^6 terms that takes seconds, so the
    # guard is lowered to keep the check fast
    monkeypatch.setattr(equidist, "SAMPLE_GUARD", 1000)
    assert sum(diag_equidist(0, 1000, 10).histogram) == 1000
    with pytest.raises(GuardError):
        diag_equidist(0, 1001, 10)

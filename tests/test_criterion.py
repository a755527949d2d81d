"""Floor criterion, realizability search, certificates, and scanners."""

from collections.abc import Iterator
from fractions import Fraction

import pytest

from avoidpairs.criterion import (
    INTERVAL_ROW_GUARD,
    OFFSET_M,
    SCAN_T4_FIELDS,
    AffineQ,
    AvoidabilityCert,
    CertRejection,
    Impossible,
    PairMF,
    Realizable,
    _in_envelope,
    _interval_bounds,
    avoidability_certificate,
    clique_forest_realizable,
    eval_criterion,
    lr_from_f,
    lr_values,
    scan_interval,
    scan_mod23,
    scan_affine_q,
    scan_offset_disjunction,
)
from avoidpairs.errors import DomainError, GuardError, ScanAssertionError
from avoidpairs.exactarith import binom2
from helpers import (
    TableQ,
    first_persistent_m,
    interval_all_pass,
    interval_bounds_fraction,
    offset_disjunction_records,
    scan_hits,
    smallest_clique_size_bisection as _smallest_clique_size,
    smallest_clique_size_linear,
    xcheck_lr_equivalence,
)


def test_pair_validation_and_complement():
    assert PairMF(5, 7).complement() == PairMF(5, 3)
    assert PairMF(40, 390).complement() == PairMF(40, 390)
    with pytest.raises(DomainError):
        PairMF(0, 0)
    with pytest.raises(DomainError):
        PairMF(4, 7)
    with pytest.raises(DomainError):
        PairMF(4, -1)


def test_eval_criterion_examples():
    ev = eval_criterion(40, 0)
    assert (ev.Dy, ev.Dz, ev.L, ev.R) == (2809, 3121, 29, 28)
    assert ev.frac_y.value == 1 << (ev.frac_y.fracbits - 1)  # exactly 1/2

    ev = eval_criterion(221, 0)
    assert (ev.L, ev.R) == (157, 156)
    assert (ev.Dy, ev.Dz) == (95481, 97241)

    ev = eval_criterion(5, 0)
    assert (ev.Dy, ev.L, ev.Dz, ev.R) == (9, 4, 41, 3)


def test_eval_criterion_envelope_errors_name_the_bound():
    with pytest.raises(DomainError, match="m >= 5"):
        eval_criterion(4, 0)
    with pytest.raises(DomainError, match=r"\(m-5\)\^2 >= 4\*\|q\|"):
        eval_criterion(5, 1)


def test_realizability_examples():
    assert clique_forest_realizable(PairMF(5, 4)) == Realizable(0, 5, 4)
    assert clique_forest_realizable(PairMF(5, 7)) == Impossible(5, 4)
    assert clique_forest_realizable(PairMF(40, 390)) == Impossible(29, 28)
    # full clique and near-clique boundaries
    assert clique_forest_realizable(PairMF(6, 15)) == Realizable(6, 0, 0)
    assert isinstance(clique_forest_realizable(PairMF(6, 14)), Impossible)


def test_floors_decide_only_on_m_le_f_lt_binom2_m():
    # (3, 2) and every (m, binom2(m)) are realizable although L > R
    assert lr_from_f(3, 2) == (3, 2)
    assert clique_forest_realizable(PairMF(3, 2)) == Realizable(0, 3, 2)
    for m in range(3, 40):  # below 3, f = binom2(m) <= m - 1 takes x = 0
        L, R = lr_from_f(m, binom2(m))
        assert L > R, m
        assert clique_forest_realizable(PairMF(m, binom2(m))) == Realizable(m, 0, 0)
    with pytest.raises(DomainError):
        lr_from_f(5, 3)  # f < m - 1: L is undefined


def _clique_size(cert):
    return cert.x if isinstance(cert, Realizable) else None


def test_bisection_matches_linear_search_exhaustively():
    for m in range(1, 61):
        for f in range(binom2(m) + 1):
            want = smallest_clique_size_linear(m, f)
            assert _smallest_clique_size(m, f) == want, (m, f)
            assert _clique_size(clique_forest_realizable(PairMF(m, f))) == want, (m, f)


def test_lr_from_f_matches_q_parametrization():
    for m in (5, 8, 40, 221, 1276, 2000):
        half = binom2(m) // 2
        for q in (0, 1, -1, 5, -5, m // 2, -m // 2):
            if (m - 5) ** 2 < 4 * abs(q):
                continue
            assert lr_from_f(m, half - q) == lr_values(m, q)


def test_certificate_examples():
    cert = avoidability_certificate(PairMF(40, 390))
    assert isinstance(cert, AvoidabilityCert)
    assert cert.cert_direct == cert.cert_complement == Impossible(29, 28)

    rej = avoidability_certificate(PairMF(5, 7))
    assert isinstance(rej, CertRejection)
    assert rej.direction == "complement"
    assert rej.rejected_pair == PairMF(5, 3)
    assert rej.decomposition.x == 0

    for m in (3, 10, 25):
        rej = avoidability_certificate(PairMF(m, 0))
        assert isinstance(rej, CertRejection)
        assert rej.direction == "direct"
        assert rej.decomposition == Realizable(0, m, 0)


def test_complement_symmetry():
    for m in range(1, 31):
        for f in range(binom2(m) + 1):
            a = avoidability_certificate(PairMF(m, f))
            b = avoidability_certificate(PairMF(m, binom2(m) - f))
            assert isinstance(a, AvoidabilityCert) == isinstance(b, AvoidabilityCert), (m, f)


def test_scan_offset_disjunction_exploration():
    recs = scan_offset_disjunction(5, 100)
    by_m = {row[6]: row for row in recs}
    assert set(by_m) == {m for m in range(5, 101) if m % 4 in (0, 1)}
    assert by_m[40][7] == "center"
    assert (by_m[40][0], by_m[40][3]) == (29, 28)
    assert by_m[13][7] == "none"
    assert by_m[13][1] is None  # below the offset envelope
    assert by_m[740][7] != "none" if 740 in by_m else True


def test_scan_offset_disjunction_assert_mode():
    recs = list(scan_offset_disjunction(740, 2000, assert_all=True))
    assert all(row[7] != "none" for row in recs)
    with pytest.raises(ScanAssertionError):
        list(scan_offset_disjunction(13, 13, assert_all=True))


def test_offset_envelope_boundary():
    # OFFSET_M is the least m >= 5 whose +/-6m pairs are inside the envelope,
    # and every m from it on is inside
    assert [m for m in range(5, 2000) if _in_envelope(m, 6 * m)] == list(range(OFFSET_M, 2000))
    by_m = {row[6]: row for row in scan_offset_disjunction(32, 37)}
    assert list(by_m) == [32, 33, 36, 37]
    for m in (32, 33):
        assert by_m[m][1:3] + by_m[m][4:6] == (None,) * 4, m
    for m in (36, 37):
        assert all(isinstance(v, int) for v in by_m[m][:7]), m
    assert by_m[37][7] == "none"  # both branches miss just past the boundary


def _offset_record_from_lr_values(m):
    # the scanner's row rebuilt with one lr_values call per q, the
    # reference for its shared radicand pair shifted by -/+48m
    l0, r0 = lr_values(m, 0)
    l6 = r6 = lm6 = rm6 = offset = None
    if (m - 5) ** 2 >= 24 * m:
        (l6, r6), (lm6, rm6) = lr_values(m, 6 * m), lr_values(m, -6 * m)
        offset = l6 > r6 and lm6 > rm6
    which = "center" if l0 > r0 else ("offset6m" if offset else "none")
    return (l0, l6, lm6, r0, r6, rm6, m, which)


def test_scanners_are_generators_in_m_order():
    scans = [
        (lambda lo, hi: scan_offset_disjunction(lo, hi), 5, 400),
        (lambda lo, hi: scan_affine_q(AffineQ(Fraction(1, 3), Fraction(2)), lo, hi), 5, 400),
        (scan_mod23, 2, 400),
    ]
    for scan, lo, hi in scans:
        records = scan(lo, hi)
        assert isinstance(records, Iterator) and not isinstance(records, list)
        assert list(records) == [rec for m in range(lo, hi + 1) for rec in scan(m, m)]
    expected = [_offset_record_from_lr_values(m)
                for m in range(5, 401) if m % 4 in (0, 1)]
    assert list(scan_offset_disjunction(5, 400)) == expected
    assert any(row[1] is not None for row in expected)


def test_scan_offset_disjunction_matches_record_reference():
    # fields in SCAN_T4_FIELDS order, and the failures of assertion mode as
    # the reference's dicts
    want = offset_disjunction_records(1, 3000)
    assert [dict(zip(SCAN_T4_FIELDS, row)) for row in scan_offset_disjunction(1, 3000)] == want
    with pytest.raises(ScanAssertionError) as info:
        list(scan_offset_disjunction(1, 3000, assert_all=True))
    assert info.value.failures == [rec for rec in want if rec["which"] == "none"]
    assert str(info.value) == (f"{len(info.value.failures)} m values satisfy neither "
                               f"branch (first: m=13)")


def test_first_persistent_m_is_an_observation():
    recs = list(scan_offset_disjunction(5, 900))
    boundary = first_persistent_m(recs)
    assert boundary is not None
    tail = [row for row in recs if row[6] >= boundary]
    assert tail and all(row[7] != "none" for row in tail)
    assert any(row[7] == "none" for row in recs if row[6] < boundary)


def test_scan_affine_q_zero_q_contains_M_prefix():
    recs = list(scan_affine_q(AffineQ(Fraction(0), Fraction(0)), 5, 2000))
    hits = scan_hits(recs)
    assert {40, 221, 1276} <= set(hits)
    skipped = [rec for rec in recs if rec["status"] == "skipped-nonintegral-f"]
    assert all(rec["m"] % 4 in (2, 3) for rec in skipped)
    # every hit certifies
    for m in hits[:20]:
        pair = PairMF(m, binom2(m) // 2)
        assert isinstance(avoidability_certificate(pair), AvoidabilityCert)


def test_scan_affine_q_exact_evaluation_at_41():
    recs = scan_affine_q(AffineQ(Fraction(0), Fraction(0)), 41, 41)
    (rec,) = recs
    lp, rp = lr_values(41, 0)
    assert (rec["status"] == "hit") == (lp > rp)


def test_scan_affine_q_linear_q_finds_instances():
    recs = scan_affine_q(AffineQ(Fraction(1), Fraction(0)), 100, 20000)
    hits = scan_hits(recs)
    assert hits, "no certified m for q(m) = m in the scanned range"
    m = hits[0]
    pair = PairMF(m, binom2(m) // 2 - m)
    assert isinstance(avoidability_certificate(pair), AvoidabilityCert)


def test_table_q_spec():
    recs = list(scan_affine_q(TableQ({40: 0}), 40, 40))
    assert recs[0]["status"] == "hit"
    with pytest.raises(DomainError):
        list(scan_affine_q(TableQ({}), 40, 40))


def test_scan_interval_m40():
    f_lo, f_hi, all_pass, rows = scan_interval(40)
    assert (f_lo, f_hi) == (384, 396)
    # (L_complement, L_direct, R_complement, R_direct, f): CERT_FIELDS[True]
    assert [row for row in rows if row[0]] == [(True, (29, 29, 28, 28, 390))]
    assert all_pass is False


def test_scan_interval_m4_and_empty():
    f_lo, f_hi, all_pass, rows = scan_interval(4)
    assert (f_lo, f_hi) == (3, 3)
    assert all_pass is False  # (4,3) is realizable as a path
    assert list(rows) == [(False, ("direct", 3, 3, 4, 0))]
    f_lo, f_hi, all_pass, rows = scan_interval(2)
    assert (f_lo, f_hi, all_pass, list(rows)) == (None, None, False, [])
    with pytest.raises(DomainError):
        scan_interval(0)


def test_interval_bounds_match_the_rational_reference():
    for m in range(1, 5001):
        f_lo, f_hi = _interval_bounds(m)
        assert (f_lo, f_hi) == interval_bounds_fraction(m), m
        assert (f_lo > f_hi) == (m == 2), m
        # closed under f -> binom2(m) - f, which scan_interval's all_pass uses
        assert m == 2 or f_lo + f_hi == binom2(m), m
    f_lo, f_hi, _, _ = scan_interval(1000)
    assert (f_lo, f_hi) == interval_bounds_fraction(1000)


def test_scan_interval_admits_up_to_the_row_guard():
    def row_count(m):
        f_lo, f_hi = _interval_bounds(m)
        return f_hi - f_lo + 1

    # about 0.35*m rows, so the edge lies near m = INTERVAL_ROW_GUARD / 0.35
    window = range(int(INTERVAL_ROW_GUARD / 0.35) - 1000, int(INTERVAL_ROW_GUARD / 0.35) + 1000)
    largest = max(m for m in window if row_count(m) <= INTERVAL_ROW_GUARD)
    assert all(row_count(m) > INTERVAL_ROW_GUARD for m in window if m > largest)
    f_lo, f_hi, _, _ = scan_interval(largest)  # its rows are not drawn
    assert f_hi - f_lo + 1 == row_count(largest)
    with pytest.raises(GuardError):
        scan_interval(largest + 1)


def test_scan_interval_all_pass_matches_every_certificate():
    # 272 of the m up to 3000 are all_pass; tests/test_cli.py checks the rows
    all_pass_count = 0
    for m in range(1, 3001):
        f_lo, f_hi, all_pass, _ = scan_interval(m)
        want = (None, None) if m == 2 else interval_bounds_fraction(m)
        assert (f_lo, f_hi, all_pass) == (*want, interval_all_pass(m)), m
        all_pass_count += all_pass
    assert all_pass_count == 272


def test_scan_mod23_examples():
    rec = list(scan_mod23(42, 42))[0]
    assert rec["f_center"] == 430
    assert [r["f"] for r in rec["center"]] == [430, 431]
    assert rec["center_avoidable"] is True
    assert all(not r["realizable"] for r in rec["center"])

    rec6 = list(scan_mod23(6, 6))[0]
    assert [r["f"] for r in rec6["center"]] == [7, 8]
    # (6,7) = K_4 plus an edge; (6,8) fits no clique size
    assert [r["realizable"] for r in rec6["center"]] == [True, False]
    assert rec6["center_avoidable"] is False
    assert rec6["offset_avoidable"] is None  # f - 6m below zero at m = 6

    rec43 = list(scan_mod23(43, 43))[0]
    assert rec43["f_center"] == binom2(43) // 2


def test_xcheck_equivalence_small_range():
    res = xcheck_lr_equivalence(5, 300)
    assert res["mismatches"] == []
    assert res["pairs_checked"] > 0


def test_floor_inequality_matches_fraction_interval():
    # L > R iff frac_y in [0, d) union [1/2, 1), checked away from endpoints
    margin = 1 << 64  # 2^-64 in numerator units at 128 fracbits
    fb = 128
    half = 1 << (fb - 1)
    one = 1 << fb
    checked = 0
    for m in range(1000, 1400):
        if m % 4 not in (0, 1):
            continue
        for q in (0, 7, -13, m // 10):
            ev = eval_criterion(m, q, fb)
            v = ev.frac_y.value
            d = ev.d_approx.value
            if min(abs(v - d), abs(v - half), v, one - v) < margin:
                continue  # too close to an interval endpoint to trust fixed point
            in_interval = v < d or v >= half
            assert (ev.L > ev.R) == in_interval, (m, q)
            checked += 1
    assert checked > 500


def test_interval_endpoint_limit():
    # d(m, 0) approaches 3/2 - sqrt(2) ~ 0.085786
    ev = eval_criterion(10**4, 0)
    assert abs(float(ev.d_approx) - (1.5 - 2**0.5)) < 1e-3
    ev = eval_criterion(10**6, 0)
    assert abs(float(ev.d_approx) - (1.5 - 2**0.5)) < 1e-5


def test_members_of_M_have_exact_half_frac_and_strict_floors():
    from avoidpairs.pell import generate_M

    for m in generate_M(10):
        ev = eval_criterion(m, 0)
        s = ev.Dy  # odd perfect square
        root = int(s**0.5)
        root = next(r for r in (root - 1, root, root + 1, root + 2) if r * r == s)
        assert root % 2 == 1
        assert ev.frac_y.value == 1 << (ev.frac_y.fracbits - 1)
        assert ev.L > ev.R

"""Recursion states, the derived set M, and the state invariant checks."""

import itertools

import pytest

from avoidpairs.criterion import (
    AvoidabilityCert,
    Impossible,
    PairMF,
    avoidability_certificate,
    radicands,
)
from avoidpairs.errors import DomainError
from avoidpairs.pell import (
    PellState,
    generate_M,
    is_in_M,
    pell_initial,
    pell_next,
    pell_states,
    verify_pell_state,
)
from helpers import X, Y, mod_pell


def test_initial_state():
    st = pell_initial()
    assert (st.s, st.x, st.y) == (0, 3, 1)
    assert 3 * 3 - 2 * 1 * 1 == 7
    assert st.m == 4


def test_recursion_chain():
    st = pell_initial()
    st = pell_next(st)
    assert (st.x, st.y) == (13, 9) and 13 * 13 - 2 * 81 == 7
    st = pell_next(st)
    assert (st.x, st.y) == (75, 53) and st.m == 40
    assert 75 * 75 - 2 * 53 * 53 == 7
    st = pell_next(st)
    assert (st.x, st.y) == (437, 309) and st.m == 221


def test_generate_M_prefix():
    assert generate_M(1) == [40]
    assert generate_M(3) == [40, 221, 1276]
    fourth = generate_M(4)[3]
    assert fourth == 7425
    # trust it only after its state passes the invariants
    st = pell_initial()
    while st.m != fourth:
        st = pell_next(st)
    assert verify_pell_state(st)["passed"]


def test_generate_M_rejects_bad_count():
    with pytest.raises(DomainError):
        generate_M(0)


def test_invariants_for_200_steps():
    xs_mod8 = []
    ys_mod8 = []
    for st in itertools.islice(pell_states(), 200):
        assert st.x * st.x - 2 * st.y * st.y == 7
        assert st.m % 4 == (0 if st.s % 2 == 0 else 1)
        xs_mod8.append(st.x % 8)
        ys_mod8.append(st.y % 8)
    assert all(v == (3 if s % 2 == 0 else 5) for s, v in enumerate(xs_mod8))
    assert all(v == (1 if s % 4 in (0, 1) else 5) for s, v in enumerate(ys_mod8))


def test_verify_pell_state_examples():
    st40 = PellState(2, 75, 53)
    checks = verify_pell_state(st40)
    assert checks["passed"]
    assert st40.m % 4 == 0 and 2 * 40 * 40 - 10 * 40 + 9 == 2809 == 53 * 53

    st221 = PellState(3, 437, 309)
    checks = verify_pell_state(st221)
    assert checks["passed"]
    assert st221.m % 4 == 1 and 2 * 221 * 221 - 10 * 221 + 9 == 95481 == 309 * 309

    tampered = verify_pell_state(PellState(2, 75, 54))
    assert not tampered["passed"]
    assert not tampered["pell_identity"]
    assert not tampered["y_odd"]


def test_membership():
    assert is_in_M(40) and is_in_M(1276)
    assert not is_in_M(41)
    assert not is_in_M(4) and not is_in_M(9)  # raw states below s = 2 are excluded
    # M follows the paper from s = 2; the half-size certificate holds at
    # s = 1 as well, and fails at s = 0, where (4, 3) is a forest
    cert = avoidability_certificate(PairMF(9, 18))
    assert isinstance(cert, AvoidabilityCert)
    assert cert.cert_direct == cert.cert_complement == Impossible(L=7, R=6)
    assert not isinstance(avoidability_certificate(PairMF(4, 3)), AvoidabilityCert)


# Every member of M by one integer argument.  With x^2 - 2y^2 = 7, x and y
# odd and m = (x + 5)/2, write 2m = x + 5.  The radicands at q = 0, times 4
# so that the coefficients stay integers:
TWO_M = X + 5
DY4 = 2 * TWO_M**2 - 20 * TWO_M + 36  # 4 * (2m^2 - 10m + 9)
DZ4 = 2 * TWO_M**2 - 4 * TWO_M + 4    # 4 * (2m^2 - 2m + 1)


def test_radicand_polynomials_are_the_criterions():
    for m in range(5, 60):
        assert [4 * d for d in radicands(m, 0)] == [DY4(2 * m - 5, 0), DZ4(2 * m - 5, 0)]


def test_the_half_size_certificate_as_polynomial_identities():
    # Dy = y^2, so L = floor((5 + y)/2) = (y + 5)/2 exactly, y being odd
    assert mod_pell(DY4 - 4 * Y**2) == 0
    # Dz = Dy + 8(m - 1) = y^2 + 4x + 12
    assert mod_pell(DZ4 - 4 * (Y**2 + 4 * X + 12)) == 0
    # R = floor((1 + sqrt(Dz))/2) < L iff sqrt(Dz) < y + 4 iff Dz < (y + 4)^2,
    # and (y + 4)^2 - Dz = 4(2y + 1 - x): so L > R iff x < 2y + 1
    assert mod_pell(4 * (Y + 4) ** 2 - DZ4 - 16 * (2 * Y + 1 - X)) == 0
    # (2y + 1)^2 - x^2 = 2y^2 + 4y - 6 = 2(y - 1)(y + 3) > 0 for y > 1, and
    # x, 2y + 1 > 0, so x < 2y + 1 at every state past the seed (y = 1)
    assert mod_pell((2 * Y + 1) ** 2 - X**2 - (2 * Y**2 + 4 * Y - 6)) == 0
    assert 2 * Y**2 + 4 * Y - 6 == 2 * (Y - 1) * (Y + 3)
    # the pair is its own complement: binom2(m) - m(m-1)/4 = m(m-1)/4


def test_the_recursion_mod_8_is_a_two_cycle():
    # pell_next is (x, y) -> (3x + 4y, 2x + 3y); modulo 8 from the seed
    # (3, 1) it never leaves {3, 5} x odd, with x alternating, so
    # m = (x + 5)/2 alternates 0, 1 (mod 4) and m(m - 1)/4 is an integer
    state, seen = (3, 1), []
    while state not in seen:
        seen.append(state)
        x, y = state
        state = ((3 * x + 4 * y) % 8, (2 * x + 3 * y) % 8)
    assert state == seen[0]
    assert [x for x, _ in seen] == [3, 5] * (len(seen) // 2)
    assert all(y % 2 for _, y in seen)
    assert [(x + 5) // 2 % 4 for x, _ in seen[:2]] == [0, 1]
    for st in itertools.islice(pell_states(), 40):
        nxt = pell_next(st)
        assert (nxt.x, nxt.y) == (3 * st.x + 4 * st.y, 2 * st.x + 3 * st.y)
        assert (st.x % 8, st.y % 8) == seen[st.s % len(seen)]


def test_the_lemma_agrees_with_the_certificate_on_30_states():
    for st in itertools.islice(pell_states(), 1, 31):
        m = st.m
        assert m * (m - 1) % 4 == 0 and st.x < 2 * st.y + 1
        cert = avoidability_certificate(PairMF(m, m * (m - 1) // 4))
        assert isinstance(cert, AvoidabilityCert), st.s
        assert cert.cert_direct == cert.cert_complement
        assert cert.cert_direct.L == (st.y + 5) // 2 > cert.cert_direct.R

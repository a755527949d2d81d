"""Recursion states, the derived set M, and the state invariant checks."""

import itertools

import pytest

from avoidpairs.criterion import AvoidabilityCert, Impossible, PairMF, avoidability_certificate
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

"""Biclique-plus-forest decompositions and their verifier."""

import pytest

from avoidpairs.bipartite import (
    BicliqueForestDecomp,
    BipartitePair,
    bipartite_realize,
    verify_bipartite_decomp,
)
from avoidpairs.errors import DomainError


def test_case_examples():
    d = bipartite_realize(BipartitePair(3, 4))
    assert (d.case, d.x, d.y) == (3, 2, 2) and not d.forest_edges

    d = bipartite_realize(BipartitePair(3, 3))
    assert (d.case, d.x, d.y) == (2, 2, 1) and len(d.forest_edges) == 1

    d = bipartite_realize(BipartitePair(2, 2))
    assert (d.case, d.x, d.y) == (2, 1, 2) and not d.forest_edges

    d = bipartite_realize(BipartitePair(5, 2))
    assert d.case == 1 and (d.x, d.y) == (2, 1) and not d.forest_edges

    d = bipartite_realize(BipartitePair(5, 1))  # f < floor(m/2): bare star
    assert d.case == 1 and (d.x, d.y) == (0, 0) and len(d.forest_edges) == 1

    d = bipartite_realize(BipartitePair(1, 0))
    assert verify_bipartite_decomp(d, BipartitePair(1, 0)).passed


def test_construction_domain():
    with pytest.raises(DomainError):
        bipartite_realize(BipartitePair(4, 9))  # above floor(m^2/2)
    with pytest.raises(DomainError):
        BipartitePair(3, 10)
    with pytest.raises(DomainError):
        BipartitePair(0, 0)


def test_exhaustive_soundness_small():
    for m in range(1, 13):
        for f in range(m * m // 2 + 1):
            pair = BipartitePair(m, f)
            d = bipartite_realize(pair)
            verdict = verify_bipartite_decomp(d, pair)
            assert verdict.passed, (m, f, verdict.failures)


def test_case3_only_for_odd_m():
    for m in range(1, 31):
        for f in range(m * m // 2 + 1):
            d = bipartite_realize(BipartitePair(m, f))
            if d.case == 3:
                assert m % 2 == 1, (m, f)


def test_y_maximality():
    for m in range(2, 31):
        x = m // 2
        for f in range(m * m // 2 + 1):
            bipartite_realize(BipartitePair(m, f))  # must not raise
            y = f // x
            assert x * y <= f < x * (y + 1)


def test_verifier_catches_tampering():
    pair = BipartitePair(5, 8)
    good = bipartite_realize(pair)
    assert verify_bipartite_decomp(good, pair).passed

    # smuggle a cycle into the forest part
    cyclic = BicliqueForestDecomp(
        m=5, f=4, x=0, y=0,
        forest_edges=((0, 0), (0, 1), (1, 1), (1, 0)), case=1,
    )
    verdict = verify_bipartite_decomp(cyclic, BipartitePair(5, 4))
    assert not verdict.passed and "acyclic" in verdict.failures

    # wrong total
    short = BicliqueForestDecomp(m=5, f=8, x=2, y=2, forest_edges=(), case=1)
    verdict = verify_bipartite_decomp(short, pair)
    assert not verdict.passed and "count" in verdict.failures

    # forest touching the biclique
    overlap = BicliqueForestDecomp(
        m=5, f=5, x=2, y=2, forest_edges=((0, 3),), case=1
    )
    verdict = verify_bipartite_decomp(overlap, BipartitePair(5, 5))
    assert not verdict.passed and "disjointness" in verdict.failures


def test_verifier_reports_capacity_and_duplicate_edges():
    pair = BipartitePair(3, 4)
    # a biclique wider than a side, with the right edge count
    wide = BicliqueForestDecomp(m=3, f=4, x=4, y=1, forest_edges=(), case=1)
    assert verify_bipartite_decomp(wide, pair).failures == ("capacity",)
    # one forest edge twice, which also closes a cycle of length two
    twice = BicliqueForestDecomp(m=3, f=4, x=1, y=2, forest_edges=((1, 2), (1, 2)), case=1)
    assert verify_bipartite_decomp(twice, pair).failures == ("duplicate-edges", "acyclic")

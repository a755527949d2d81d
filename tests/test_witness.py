"""Witness construction, structural verification, and agreement with the
exhaustive arrowing decision."""

import math

import pytest

from avoidpairs.criterion import PairMF
from avoidpairs.errors import DomainError, GuardError
from avoidpairs.exactarith import binom2
from avoidpairs.graphs import Graph, girth
from avoidpairs.oracle import arrows
from avoidpairs.witness import (
    BUILD_GUARD,
    Infeasible,
    WitnessGraph,
    build_witness,
    build_witness_or_complement,
    verify_witness,
)
from helpers import induced_subgraph


def test_clique_size_rule():
    w = build_witness(10, 3, 10)
    assert w.clique_vertices == frozenset({0, 1, 2})  # binom2(3) = 3 <= 3 <= binom2(4)-1
    assert w.graph.edge_count() == 3
    assert all(w.graph.rows[v].bit_count() == 0 for v in w.girth_part)

    w = build_witness(10, 45, 5)
    assert len(w.clique_vertices) == 10 and not w.girth_part
    assert w.graph == Graph(10).complement()

    w = build_witness(8, 21, 8)
    assert len(w.clique_vertices) == 7
    assert w.girth_part == frozenset({7})

    w = build_witness(12, 0, 5)
    assert not w.clique_vertices and w.graph.edge_count() == 0


def test_build_validation():
    with pytest.raises(DomainError):
        build_witness(5, 11, 5)
    with pytest.raises(DomainError):
        build_witness(5, 3, 2)
    # refused before binom2 would name its own argument
    for build in (build_witness, build_witness_or_complement):
        with pytest.raises(DomainError, match="vertex count must be >= 0"):
            build(-1, 0, 3)
        # the size guard admits its own n and refuses the next before any work
        assert isinstance(build(BUILD_GUARD, 0, 3), WitnessGraph)
        with pytest.raises(GuardError, match=f"n={BUILD_GUARD + 1} exceeds {BUILD_GUARD}"):
            build(BUILD_GUARD + 1, 0, 3)


def test_or_complement_rule():
    w = build_witness_or_complement(12, 60, 5)
    assert w.complemented and w.graph.edge_count() == 60
    s = w.structure_graph()
    assert s.edge_count() == 6

    w = build_witness_or_complement(12, 0, 5)
    assert not w.complemented and w.graph.edge_count() == 0

    w = build_witness_or_complement(12, 66, 5)
    assert w.complemented and w.graph == Graph(12).complement()


def test_honest_infeasibility():
    built = build_witness(10, 44, 5)
    assert isinstance(built, Infeasible)
    assert built.k == 9 and built.missing == 8
    # a pair at its own scale: every (5,5)-graph trivially arrows (5,5)
    assert isinstance(build_witness(5, 5, 5), Infeasible)


def test_greedy_builds_the_clique_plus_one_star():
    # The girth part takes the extra edges as a star at vertex k; after a
    # spanning star any two of its vertices are at distance <= 2 < p, so
    # nothing more fits.  A builder that seeds the girth part must keep
    # these graphs.  Every e for n <= 20; above that, at sampled n up to the
    # guard, the two e whose extra just fits and just misses, with dense e
    # (the complement of the same structure) as well.
    cases = [(n, e) for n in range(21) for e in range(binom2(n) + 1)]
    for n in (62, 63, 100, 240, BUILD_GUARD):
        k = n // 2 + 1  # n - k < k, so k stays the clique size of both e
        cases += [(n, binom2(k) + n - k - 1), (n, binom2(k) + n - k)]
    for n, e in cases:
        k = max(k for k in range(n + 1) if binom2(k) <= e) if e else 0
        extra = e - binom2(k)
        edges = [(u, v) for v in range(k) for u in range(v)]
        star = [(k, v) for v in range(k + 1, k + 1 + extra)]
        fits = extra <= max(n - k - 1, 0)  # k = n leaves no star, and no extra
        expected = Graph.from_edges(n, edges + star) if fits else None
        for p in range(3, 9):
            built = build_witness(n, e, p)
            if fits:
                assert built.graph == expected, (n, e, p)
                assert built.clique_vertices == frozenset(range(k))
            else:
                assert isinstance(built, Infeasible), (n, e, p)
                assert (built.k, built.placed) == (k, n - k - 1), (n, e, p)
        if n > 20:
            dense = build_witness_or_complement(n, binom2(n) - e, 5)
            if fits:
                assert dense.complemented and dense.graph == expected.complement(), (n, e)
            else:
                assert isinstance(dense, Infeasible), (n, e)
                assert (dense.k, dense.placed) == (k, n - k - 1), (n, e)


def test_builder_soundness_and_determinism():
    for n in range(3, 13):
        for e in range(binom2(n) + 1):
            w1 = build_witness_or_complement(n, e, n)
            w2 = build_witness_or_complement(n, e, n)
            if isinstance(w1, Infeasible):
                assert w1 == w2
                continue
            assert w1.graph == w2.graph
            assert w1.graph.edge_count() == e
            s = w1.structure_graph()
            clique = sorted(w1.clique_vertices)
            for i, u in enumerate(clique):
                for v in clique[i + 1 :]:
                    assert s.rows[u] >> v & 1
            for u in w1.clique_vertices:
                for v in w1.girth_part:
                    assert not s.rows[u] >> v & 1


def test_verify_witness_pass_and_failures():
    w = build_witness_or_complement(50, 30, 41)
    assert verify_witness(w, PairMF(40, 390)).passed

    bad_pair = verify_witness(w, PairMF(5, 4))
    assert not bad_pair.passed and bad_pair.failures == ("realizable",)

    # inject a cross edge: structural failure is named
    g = Graph(w.graph.n, w.graph.rows)
    u = min(w.clique_vertices)
    v = min(x for x in w.girth_part if not g.rows[u] >> x & 1)
    g.add_edge(u, v)
    tampered = WitnessGraph(g, w.clique_vertices, w.girth_part, w.girth_bound, w.complemented)
    verdict = verify_witness(tampered, PairMF(40, 390))
    assert not verdict.passed and "cross-edges" in verdict.failures

    # girth bound too low for the pair
    short = build_witness(30, 20, 5)
    assert isinstance(short, WitnessGraph)
    # (5,5) needs girth above 5; a p=5 witness with an actual short cycle would
    # fail, but the builder only ever places a star, so girth is inf
    assert girth(short.graph, short.girth_part) == math.inf
    assert girth(induced_subgraph(short.graph, short.girth_part)) == math.inf


def test_verify_witness_flags_broken_partition_and_clique():
    g = Graph(6).complement()
    w = WitnessGraph(g, frozenset({0, 1}), frozenset({3, 4, 5}), 6, False)
    verdict = verify_witness(w, PairMF(5, 5))
    assert "partition" in verdict.failures

    g2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    w2 = WitnessGraph(g2, frozenset({0, 1, 2}), frozenset({3}), 6, False)
    verdict2 = verify_witness(w2, PairMF(5, 5))
    assert "clique-complete" in verdict2.failures


def test_complemented_witness_verifies_against_complement_pair():
    w = build_witness_or_complement(30, binom2(30) - 10, 31)
    assert w.complemented
    # the complement pair of (5,5) is itself, so the certificate still applies
    assert verify_witness(w, PairMF(5, 5)).passed


def test_exhaustive_arrow_check():
    assert arrows(Graph(4).complement(), PairMF(3, 3))
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert arrows(c5, PairMF(3, 1))
    assert not arrows(Graph(6), PairMF(3, 1))
    assert not arrows(Graph(3), PairMF(5, 2))  # m > n
    with pytest.raises(GuardError):
        arrows(Graph(64), PairMF(32, 100))  # C(64, 32) > SUBSET_GUARD


def test_certified_nonarrowing_matches_exhaustive_check():
    pair = PairMF(5, 5)  # impossible in both orientations
    for n, e in [(8, 10), (9, 14), (10, 6), (12, 40), (12, 26)]:
        w = build_witness_or_complement(n, e, max(6, pair.m + 1))
        if isinstance(w, Infeasible):
            continue
        verdict = verify_witness(w, pair)
        assert verdict.passed
        assert not arrows(w.graph, pair)


def test_verified_witnesses_never_arrow_the_certified_pair():
    # every (n, e) with n <= 12, against the certified pair (5, 5)
    pair = PairMF(5, 5)
    built = 0
    for n in range(1, 13):
        for e in range(binom2(n) + 1):
            w = build_witness_or_complement(n, e, 6)
            if isinstance(w, Infeasible):
                continue
            built += 1
            assert verify_witness(w, pair).passed, (n, e)
            assert not arrows(w.graph, pair), (n, e)
    assert built >= 269  # of 298; the rest are honest Infeasible results

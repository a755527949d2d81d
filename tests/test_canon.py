"""Canonical labeling: invariance under relabeling, discrimination, and the
behavior on high-symmetry graphs."""

import random

from avoidpairs.graphs import Graph

from helpers import canonical_graph, canonical_key


def _permuted(g, perm):
    out = Graph(g.n)
    for u, v in g.edges():
        out.add_edge(perm[u], perm[v])
    return out


def test_invariance_under_relabeling():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randrange(1, 9)
        g = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    g.add_edge(u, v)
        key = canonical_key(g)
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(_permuted(g, perm)) == key


def test_distinguishes_cospectral_degree_twins():
    # C_6 and 2*K_3 are both 2-regular on 6 vertices with 6 edges
    c6 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    two_k3 = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert canonical_key(c6) != canonical_key(two_k3)
    # P_4 vs K_{1,3}
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_key(p4) != canonical_key(star)


def test_canonical_form_is_idempotent():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randrange(1, 9)
        g = Graph(n)
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    g.add_edge(u, v)
        cg = canonical_graph(g)
        assert canonical_graph(cg) == cg


def test_high_symmetry_graphs_are_fast_and_stable():
    # twin collapsing keeps these from exploding; keys must still be invariant
    for g in (Graph(8), Graph.complete(8),
              Graph.from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)])):
        key = canonical_key(g)
        perm = [3, 1, 4, 0, 6, 2, 7, 5]
        assert canonical_key(_permuted(g, perm)) == key

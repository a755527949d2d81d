"""Canonical labeling: invariance under relabeling, discrimination, and the
behavior on high-symmetry graphs."""

import random

import pytest

from avoidpairs.canon import canonical_rows
from avoidpairs.errors import DomainError
from avoidpairs.graphs import Graph, rows_of, to_graph6

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


def test_codes_decode_to_their_class_and_sort_as_graph6():
    # a code has one bit per edge, labels its own graph again, and for one n
    # the order of codes is the order of the graph6 strings of their graphs
    rng = random.Random(29)
    for n in range(1, 9):
        codes = set()
        for _ in range(40):
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < 0.5])
            code = canonical_rows(tuple(g.rows), n)[0]
            rows = rows_of(code, n)
            assert code.bit_count() == g.edge_count()
            assert canonical_rows(rows, n)[0] == code
            codes.add(code)
        graph6 = [to_graph6(Graph(n, rows_of(code, n))) for code in sorted(codes)]
        assert graph6 == sorted(graph6)


def test_high_symmetry_graphs_are_fast_and_stable():
    # twin collapsing keeps these from exploding; keys must still be invariant
    for g in (Graph(8), Graph(8).complement(),
              Graph.from_edges(8, [(i, j) for i in range(4) for j in range(4, 8)])):
        key = canonical_key(g)
        perm = [3, 1, 4, 0, 6, 2, 7, 5]
        assert canonical_key(_permuted(g, perm)) == key


def test_twin_classes_record_one_transposition_per_twin():
    # the empty and the complete graph on 9 vertices are one twin class
    # each, whose group S_9 eight transpositions generate
    for g in (Graph(9), Graph(9).complement()):
        _, _, generators = canonical_rows(tuple(g.rows), g.n)
        assert len(generators) == 8
        assert all(sum(v != w for v, w in enumerate(p)) == 2 for p in generators)


def test_empty_single_vertex_and_oversized_inputs():
    # the n == 0 and n > 16 guards run before the root partition, which
    # cannot refine an empty vertex set
    assert canonical_rows((), 0) == (0, [], [])
    assert canonical_rows((0,), 1) == (0, [0], [])
    with pytest.raises(DomainError):
        canonical_rows((0,) * 17, 17)

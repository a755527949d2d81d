"""Graph representation, the clique-plus-star construction, graph6 codec,
and girth."""

import math
import random
import time

import pytest

from avoidpairs.errors import DomainError
from avoidpairs.exactarith import binom2
from avoidpairs.graphs import Graph, clique_plus_star, from_graph6, girth, to_graph6
from avoidpairs.witness import build_witness
from helpers import induced_subgraph


def _random_graph(rng, n, p=0.4):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def _girth_brute(g):
    # a shortest cycle is chordless, so it appears as an induced cycle:
    # search subsets by size for one inducing a connected 2-regular graph
    from itertools import combinations

    for length in range(3, g.n + 1):
        for subset in combinations(range(g.n), length):
            mask = sum(1 << v for v in subset)
            degs = [(g.rows[v] & mask).bit_count() for v in subset]
            if any(d != 2 for d in degs):
                continue
            seen = {subset[0]}
            frontier = [subset[0]]
            while frontier:
                nxt = []
                for u in frontier:
                    r = g.rows[u] & mask
                    while r:
                        b = r & -r
                        w = b.bit_length() - 1
                        r ^= b
                        if w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
            if len(seen) == length:
                return length
    return math.inf


def test_graph_basics():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.edge_count() == 2
    assert g.rows[0] >> 1 & 1 and not g.rows[0] >> 2 & 1
    assert g.rows[1].bit_count() == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(DomainError):
        g.add_edge(1, 1)
    with pytest.raises(DomainError):
        g.add_edge(0, 4)


def test_graph_refuses_a_negative_order_and_a_wrong_row_count():
    with pytest.raises(DomainError, match="vertex count must be >= 0, got -1"):
        Graph(-1)
    with pytest.raises(DomainError, match="expected 3 adjacency rows, got 2"):
        Graph(3, [0, 0])


def test_complement_involution():
    rng = random.Random(3)
    for _ in range(50):
        g = _random_graph(rng, rng.randrange(1, 10))
        assert g.complement().complement() == g
    assert Graph(4).complement().edge_count() == 6


def test_graph6_known_values():
    assert to_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"
    assert to_graph6(Graph(3).complement()) == "Bw"
    assert to_graph6(Graph(1)) == "@"
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert from_graph6(to_graph6(p3)) == p3


def test_graph6_round_trip_random():
    rng = random.Random(5)
    for _ in range(200):
        g = _random_graph(rng, rng.randrange(0, 20))
        assert from_graph6(to_graph6(g)) == g
    g62 = _random_graph(rng, 62)
    assert from_graph6(to_graph6(g62)) == g62


def test_graph6_long_header_round_trip():
    assert to_graph6(Graph(63)).startswith("~??~")
    assert to_graph6(Graph(300))[:4] == "~?Ck"  # 300 = 4*64 + 44
    rng = random.Random(7)
    for n in (63, 64, 127, 300, 451):
        g = _random_graph(rng, n, p=0.05)
        text = to_graph6(g)
        assert len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
        assert from_graph6(text) == g


def test_graph6_round_trips_the_2000_vertex_witness():
    # K_1414 plus a star on the other 585 vertices, about 2 * 10^6 code bits:
    # the decoder is linear in them and takes well under a second, where
    # shifting the whole code once per bit is quadratic (52 s)
    e = binom2(1414) + 585
    w = build_witness(2000, e, p=5)
    text = to_graph6(w.graph)
    assert text[:4] == "~?^O" and len(text) == 4 + (binom2(2000) + 5) // 6
    start = time.perf_counter()
    assert from_graph6(text) == w.graph and w.graph.edge_count() == e
    assert time.perf_counter() - start < 5


def test_graph6_errors():
    with pytest.raises(DomainError):
        to_graph6(Graph(258048))
    with pytest.raises(DomainError):
        from_graph6("")
    with pytest.raises(DomainError):
        from_graph6("B")  # truncated body
    with pytest.raises(DomainError):
        from_graph6("~??")  # truncated long header
    with pytest.raises(DomainError):
        from_graph6("~~?????")  # 8-byte header, n > 258047


def test_graph6_rejects_padding_bad_bytes_and_long_bodies():
    assert from_graph6("A_") == Graph.from_edges(2, [(0, 1)])
    with pytest.raises(DomainError, match="padding"):
        from_graph6("A`")  # K_2 plus one set padding bit
    with pytest.raises(DomainError, match="byte"):
        from_graph6("C\x7f")  # body byte above '~'
    with pytest.raises(DomainError, match="byte"):
        from_graph6("C>")  # body byte below '?'
    with pytest.raises(DomainError, match="length"):
        from_graph6("A_?")  # one body byte too many


def test_girth_examples():
    assert girth(Graph(3).complement()) == 3
    tree = Graph.from_edges(10, [(0, i) for i in range(1, 10)])
    assert girth(tree) == math.inf
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert girth(c5) == 5
    assert girth(c5, range(5)) == 5 and girth(c5, [0, 1, 2, 3]) == girth(c5, []) == math.inf
    chorded = Graph(c5.n, c5.rows)
    chorded.add_edge(1, 3)
    assert girth(chorded) == 3
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert girth(c4) == 4
    petersen = Graph.from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)],
    )
    assert girth(petersen) == 5


def test_girth_against_brute_force():
    rng, part_rng = random.Random(9), random.Random(10)
    for _ in range(300):
        g = _random_graph(rng, rng.randrange(1, 9), p=rng.choice([0.15, 0.3, 0.5]))
        assert girth(g) == _girth_brute(g)
        part = [v for v in range(g.n) if part_rng.random() < 0.6]
        assert girth(g, part) == _girth_brute(induced_subgraph(g, part))


def test_clique_plus_star_against_an_edge_by_edge_reference():
    for n in range(13):
        for k in range(n + 1):
            for extra in range(n + 1):
                built = clique_plus_star(n, k, extra)
                if extra > max(n - k - 1, 0):
                    assert built is None, (n, k, extra)
                    continue
                clique = [(u, v) for v in range(k) for u in range(v)]
                star = [(k, v) for v in range(k + 1, k + 1 + extra)]
                assert built == Graph.from_edges(n, clique + star), (n, k, extra)
                assert girth(built, range(k, n)) == math.inf

"""Property tests: the floor decision against the linear reference, the
graph6 round trip, and canonical labelling under relabelling, over inputs
drawn by hypothesis."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from avoidpairs.canon import canonical_rows
from avoidpairs.criterion import PairMF, Realizable, clique_forest_realizable
from avoidpairs.exactarith import binom2
from avoidpairs.graphs import Graph, from_graph6, to_graph6
from helpers import smallest_clique_size_linear


@st.composite
def pairs(draw, max_m=3000):
    m = draw(st.integers(1, max_m))
    return m, draw(st.integers(0, binom2(m)))


@given(pairs())
@settings(max_examples=300, deadline=None)
def test_floor_decision_matches_linear_reference(mf):
    m, f = mf
    cert = clique_forest_realizable(PairMF(m, f))
    x = cert.x if isinstance(cert, Realizable) else None
    assert x == smallest_clique_size_linear(m, f)
    if isinstance(cert, Realizable):
        assert cert == Realizable(x, m - x, f - binom2(x))


@given(st.integers(0, 300), st.floats(0, 1), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_graph6_round_trip(n, density, seed):
    # the edges come from a seeded generator: a drawn edge list for n = 300
    # would overrun hypothesis's per-example data budget
    rng = random.Random(seed)
    g = Graph.from_edges(
        n, ((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density)
    )
    assert from_graph6(to_graph6(g)) == g


@st.composite
def relabelled_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [uv for i, uv in enumerate(pairs) if mask >> i & 1]
    perm = draw(st.permutations(range(n)))
    return (Graph.from_edges(n, edges),
            Graph.from_edges(n, ((perm[u], perm[v]) for u, v in edges)))


@given(relabelled_graphs())
@settings(max_examples=300, deadline=None)
def test_canonical_rows_invariant_under_relabelling(gh):
    g, h = gh
    assert canonical_rows(tuple(g.rows), g.n) == canonical_rows(tuple(h.rows), h.n)

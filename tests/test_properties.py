"""Property tests: the surd floor against integer bisection, the floor
decision against the linear reference, the scan-t4 and scan-interval line
formats and the witness record's adjacency items against the JSON encoder,
graph6 against its per-bit reference in both directions, refusals included,
canonical labelling under relabelling and the automorphisms it records, the
girth of a part against the girth of its induced subgraph, and the arrowing
decision against the full induced-size set, over inputs drawn by
hypothesis."""

import contextlib
import io
import itertools
import random

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from avoidpairs.canon import canonical_rows, orbit
from avoidpairs.cli import _adjacency_items, dump_json, main
from avoidpairs.criterion import (
    PairMF,
    Realizable,
    _interval_bounds,
    clique_forest_realizable,
)
from avoidpairs.errors import DomainError
from avoidpairs.exactarith import binom2, surd_floor
from avoidpairs.graphs import Graph, from_graph6, girth, rows_of, to_graph6
from avoidpairs.oracle import arrows
from helpers import (
    from_graph6_per_bit,
    induced_size_set,
    induced_subgraph,
    interval_bounds_fraction,
    offset_disjunction_records,
    scan_interval_record,
    smallest_clique_size_linear,
    to_graph6_per_bit,
)


def surd_floor_bisection(c, d):
    """Largest k with 2k - c <= 0 or (2k - c)**2 <= d, by integer bisection."""
    def holds(k):
        return 2 * k - c <= 0 or (2 * k - c) ** 2 <= d

    lo, hi = c // 2, c // 2 + d + 1  # holds(lo); not holds(hi): 2hi - c > 2d >= sqrt(d)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


# plain radicands, and squares with their neighbours, where a floor changes
surd_radicands = st.one_of(
    st.integers(0, 2**200 - 1),
    st.builds(lambda s, off: max(0, s * s + off), st.integers(0, 2**100 - 1), st.integers(-1, 1)),
)


@given(st.integers(-50, 50), surd_radicands)
@settings(max_examples=500, deadline=None)
def test_surd_floor_matches_bisection(c, d):
    assert surd_floor(c, d) == surd_floor_bisection(c, d)


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


@given(st.integers(1, 10**9))
@settings(max_examples=500, deadline=None)
def test_interval_bounds_match_the_rational_reference(m):
    assert _interval_bounds(m) == interval_bounds_fraction(m)


@given(st.one_of(st.integers(1, 60), st.integers(5, 10**6)), st.integers(0, 200))
@settings(max_examples=200, deadline=None)
def test_scan_t4_line_matches_dump_json(m_lo, width):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["criterion", "scan-t4", "--from", str(m_lo), "--to", str(m_lo + width)]) == 0
    want = [dump_json(rec) + "\n" for rec in offset_disjunction_records(m_lo, m_lo + width)]
    assert out.getvalue().splitlines(keepends=True) == want


@given(st.integers(1, 10**5))
@settings(max_examples=12, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_scan_interval_line_matches_dump_json(m):
    # up to 35,000 rows a line, about a second each, so few examples and no
    # shrinking; test_interval_rows_match_dump_json finds the least failing m
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["criterion", "scan-interval", "--m", str(m)]) == 0
    assert out.getvalue() == dump_json(scan_interval_record(m)) + "\n"


@given(st.one_of(st.integers(0, 70), st.sampled_from([62, 63, 64, 300])),
       st.floats(0, 1), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_graph6_round_trip(n, density, seed):
    # the edges come from a seeded generator: a drawn edge list for n = 300
    # would overrun hypothesis's per-example data budget
    rng = random.Random(seed)
    g = Graph.from_edges(
        n, ((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density)
    )
    text = to_graph6(g)
    assert text == to_graph6_per_bit(g)
    assert from_graph6(text) == g


g6_bytes = st.characters(min_codepoint=0x3E, max_codepoint=0x7F)
# any text, text over the graph6 alphabet with its neighbours '>' and DEL,
# and a one-byte header with a body of the length it asks for
graph6_texts = st.one_of(
    st.text(max_size=12),
    st.text(alphabet=g6_bytes, max_size=12),
    st.integers(0, 12).flatmap(lambda n: st.text(
        alphabet=g6_bytes, min_size=(binom2(n) + 5) // 6, max_size=(binom2(n) + 5) // 6,
    ).map(lambda body: chr(n + 63) + body)),
)


def _decoded(decode, text):
    try:
        return decode(text)
    except DomainError as exc:
        return str(exc)


@given(graph6_texts)
@settings(max_examples=500, deadline=None)
def test_from_graph6_returns_a_graph_or_raises_domain_error(text):
    # the same graph, or the same first refusal, as the per-bit reference
    g = _decoded(from_graph6, text)
    assert isinstance(g, (Graph, str))
    assert g == _decoded(from_graph6_per_bit, text)


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph.from_edges(n, (uv for i, uv in enumerate(pairs) if mask >> i & 1))


@st.composite
def relabelled_graphs(draw, max_n=8):
    g = draw(small_graphs(max_n))
    perm = draw(st.permutations(range(g.n)))
    return g, Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


@given(relabelled_graphs())
@settings(max_examples=300, deadline=None)
def test_canonical_rows_invariant_under_relabelling(gh):
    g, h = gh
    assert canonical_rows(tuple(g.rows), g.n)[0] == canonical_rows(tuple(h.rows), h.n)[0]


@given(small_graphs(max_n=6))
@settings(max_examples=200, deadline=None)
def test_recorded_automorphisms_give_the_brute_force_orbits(g):
    rows = tuple(g.rows)
    edges = {tuple(sorted(uv)) for uv in g.edges()}

    def image_edges(p):
        return {tuple(sorted((p[a], p[b]))) for a, b in edges}

    code, order, generators = canonical_rows(rows, g.n)
    for p in generators:
        assert image_edges(p) == edges
    group = [p for p in itertools.permutations(range(g.n)) if image_edges(p) == edges]
    # the generators generate the whole group, which the oracle's mask
    # orbits need, not only the vertex orbits
    closure = {tuple(range(g.n))}
    todo = list(closure)
    while todo:
        p = todo.pop()
        for q in generators:
            r = tuple(q[p[v]] for v in range(g.n))
            if r not in closure:
                closure.add(r)
                todo.append(r)
    assert closure == set(group)
    for u in range(g.n):
        masks = orbit(1 << u, generators)
        assert {m.bit_length() - 1 for m in masks} == {p[u] for p in group}
        assert all(m.bit_count() == 1 for m in masks)
    # order relabels the input into the graph of the code: new index i is
    # old vertex order[i]
    pos = {u: i for i, u in enumerate(order)}
    assert sorted(order) == list(range(g.n))
    relabelled = Graph.from_edges(g.n, ((pos[u], pos[v]) for u, v in edges))
    assert relabelled == Graph(g.n, rows_of(code, g.n))


@given(small_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_arrows_matches_the_induced_size_set(g, data):
    # m runs past n, where no m-subset exists and the answer is False
    m = data.draw(st.integers(1, g.n + 2))
    f = data.draw(st.integers(0, binom2(m)))
    assert arrows(g, PairMF(m, f)) == (m <= g.n and f in induced_size_set(g, m))


@given(small_graphs(max_n=14), st.data())
@settings(max_examples=300, deadline=None)
def test_girth_of_a_part_is_the_girth_of_its_induced_subgraph(g, data):
    part = data.draw(st.sets(st.integers(0, g.n - 1)))
    assert girth(g, part) == girth(induced_subgraph(g, part))


@given(st.integers(0, 70), st.floats(0, 1), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_adjacency_items_match_dump_json(n, density, seed):
    rng = random.Random(seed)
    g = Graph.from_edges(
        n, ((u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density)
    )
    adjacency = [[u for u in range(n) if g.rows[v] >> u & 1] for v in range(n)]
    assert "".join(_adjacency_items(g)) == dump_json(adjacency)[1:-1]

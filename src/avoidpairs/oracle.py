"""Brute-force ground truth at small scale: isomorphism-free enumeration of
graphs, induced-subgraph arrowing decisions, full S_n reports, and an explicit
clique-plus-forest realization oracle independent of the floor criterion.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import combinations

from .canon import canonical_rows, orbit, root_partition
from .criterion import PairMF, Realizable, clique_forest_realizable
from .errors import DomainError, GuardError
from .exactarith import binom2
from .graphs import Graph, clique_plus_star, girth, rows_of, to_graph6
from .records import Record

QUERY_GUARD = 10          # single (n, e) enumeration
SWEEP_GUARD = 9           # full levels: S_n sweeps
ORACLE_MAX_M = 12
SUBSET_GUARD = 10**8      # comb(n, m) bounds the leaves of one subset search


def _completions(rows: tuple[int, ...], m: int, f: int, cap: int) -> list[tuple[int, int]]:
    """(T, f - e(T)) for each (m-1)-subset T of the graph's vertices, as a
    mask, with 0 <= f - e(T) <= cap: a new vertex joined to exactly
    f - e(T) vertices of T makes T and itself induce f edges."""
    found = []
    for subset in combinations(range(len(rows)), m - 1):
        t = sum(1 << v for v in subset)
        need = f - sum((rows[v] & t).bit_count() for v in subset) // 2
        if 0 <= need <= cap:
            found.append((t, need))
    return found


def _classes(
    n: int, e_lo: int, e_hi: int, pair: PairMF | None = None
) -> Iterator[int]:
    """Yield each isomorphism class on n >= 1 vertices with e_lo <= e <= e_hi
    edges once, as its canonical code (canon.canonical_rows), depth first
    (not in graph6 order); with a pair, only the classes that do not arrow
    it.

    Built by canonical augmentation (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998).  The canonical deletion orbit of a
    graph is the orbit of the vertex with the largest canonical index, which
    lies in the last cell of the root equitable partition.  An isomorphism
    carries canonical labellings onto canonical labellings up to an
    automorphism, so it carries the canonical deletion orbit onto that of the
    image.  A child, parent + new vertex, is kept only if the new vertex lies
    in that orbit.  Cells of the root partition are unions of orbits, so a
    child whose new vertex is outside the last cell is rejected after one
    refinement; the rest are labelled once, which gives the canonical code,
    the canonical order, and generators of the automorphism group
    (canon.canonical_rows proves they generate it), in the labels the
    child was built with: the child is kept iff its canonically last vertex
    is in the orbit of the new one, and it uses the generators as a parent.
    The last cell holds only vertices of the largest degree, so most children
    already fail on degree, which the parent's degrees and the mask decide
    without building the child.
    - Complete: for G on k+1 vertices and w in its canonical orbit, G - w is
      isomorphic to one parent P on k vertices, and the matching mask on P
      gives a child isomorphic to G whose new vertex is the image of w.  Each
      g in Aut(P), fixing the new vertex, maps that child onto the child of
      g(mask), and keeps degrees, so P tries one mask per orbit of Aut(P) on
      masks: the first that passes the degree tests; its child is kept.
    - Unique: if kept children of P and P' are isomorphic, an isomorphism
      maps one new vertex into the other's canonical orbit; composed with an
      automorphism of the image it fixes the new vertex.  So P and P' are
      isomorphic, hence equal, and it maps one mask onto the other in
      Aut(P): the two masks share an orbit, of which P tried only one.
    A child on k+1 vertices is kept only if the window is still reachable
    from it: at most e_hi edges, and at least e_lo once every edge outside
    its k+1 vertices is added.  The chain of canonical deletions from a graph
    in the window consists of induced subgraphs of it, which pass both
    tests, so the pruning loses no class; on the last vertex the two tests
    are the window itself.  At n = 1 the window must contain 0.

    With a pair (m, f), a child on at least m vertices is also dropped, before
    its root partition and its labelling, when some m-subset containing the
    new vertex induces f edges, which _completions decides from the parent's
    (m-1)-subsets.  Not arrowing is hereditary for induced subgraphs, so the
    canonical deletion chain of a class that does not arrow passes these
    tests too, and the pruning loses no such class.  The test runs before
    the mask's orbit is walked: an automorphism of the parent maps
    completion sets onto completion sets and keeps the degree tests, so the
    test has one answer on a whole orbit.  A mask that fails leaves its
    orbit unmarked, and each orbit-mate then fails too, so the kept children
    and the labelled candidates are those of a test after the walk.  A kept
    parent does not arrow, so a kept child arrows only through its new
    vertex: every class yielded does not arrow.  The one-vertex root arrows
    exactly (1, 0), and then nothing is yielded.
    """
    total = binom2(n)
    # without a pair no graph reaches m = n + 1 vertices: nothing is dropped
    m, f = (pair.m, pair.f) if pair is not None else (n + 1, 0)

    def grow(rows: tuple[int, ...], code: int, generators: list[list[int]]):
        k = len(rows)
        if k == n:
            yield code
            return
        cap_after = total - binom2(k + 1)  # edges still addable beyond k+1 vertices
        deg = [r.bit_count() for r in rows]
        e_parent = sum(deg) // 2
        # the new vertex takes the largest degree d = |mask|, so d >= top and
        # the parent's vertices of degree top stay out of the mask when d = top
        top = max(deg)
        tops = sum(1 << v for v in range(k) if deg[v] == top)
        d_lo = max(top, e_lo - cap_after - e_parent)
        d_hi = e_hi - e_parent
        # the new vertex meets an (m-1)-subset T in at most min(m-1, d_hi)
        # vertices, and T spans at most min(e_parent, binom2(m-1)) edges
        cap = min(m - 1, d_hi)
        if k + 1 >= m and f - min(e_parent, binom2(m - 1)) <= cap:
            completions = _completions(rows, m, f, cap)
        else:
            completions = ()
        seen: set[int] = set()
        for mask in range(1 << k):
            d = mask.bit_count()
            if not d_lo <= d <= d_hi or d == top and mask & tops or mask in seen:
                continue
            if any((mask & t).bit_count() == need for t, need in completions):
                continue
            seen |= orbit(mask, generators)
            child = tuple(r | (mask >> i & 1) << k for i, r in enumerate(rows)) + (mask,)
            root = root_partition(child, k + 1)
            if k not in root[-1]:
                continue
            child_code, order, child_generators = canonical_rows(child, k + 1, root)
            if 1 << order[k] in orbit(1 << k, child_generators):
                yield from grow(child, child_code, child_generators)

    if m > 1:
        yield from grow((0,), 0, [])


def _refuse_pair(n: int, pair: PairMF) -> None:
    """A pair query's domain refusals, before any guard: n, then the pair's order."""
    if n < 1:
        raise DomainError(f"enumeration needs n >= 1, got {n}")
    if pair.m > n:
        raise DomainError(f"pair order {pair.m} exceeds n={n}")


def _refuse_query(n: int, e: int) -> None:
    """The refusals of a single (n, e) query, in order."""
    if n < 1:
        raise DomainError(f"enumeration needs n >= 1, got {n}")
    if not 0 <= e <= binom2(n):
        raise DomainError(f"edge count must satisfy 0 <= e <= {binom2(n)}, got {e}")
    if n > QUERY_GUARD:
        raise GuardError(f"enumeration guard: n={n} exceeds {QUERY_GUARD}")


def enumerate_graphs(n: int, e: int) -> Iterator[Graph]:
    """Yield one representative per isomorphism class with n vertices, e edges,
    in canonical (graph6) order.

    Only the edge window (e, e) is built, at every n, so a query never pays
    for the classes of other edge counts; the window's codes are sorted once
    built."""
    _refuse_query(n, e)
    for code in sorted(_classes(n, e, e)):
        yield Graph(n, rows_of(code, n))


# ---------------------------------------------------------------------------
# Arrowing


def _has_induced_size(rows: list[int] | tuple[int, ...], n: int, m: int, f: int) -> bool:
    """True iff some m-subset induces exactly f edges.

    Depth-first subset search with monotone pruning: the induced count never
    decreases as vertices are added, and with r picks left and j made it can
    grow by at most r*j + r*(r-1)/2.
    """

    def rec(start: int, mask: int, j: int, count: int) -> bool:
        if j == m:
            return count == f
        r = m - j
        if count > f or count + r * j + r * (r - 1) // 2 < f:
            return False
        for v in range(start, n - r + 1):
            if rec(v + 1, mask | (1 << v), j + 1, count + (rows[v] & mask).bit_count()):
                return True
        return False

    return rec(0, 0, 0, 0)


def arrows(g: Graph, pair: PairMF) -> bool:
    """True iff g has an induced subgraph on pair.m vertices with pair.f edges
    (False when pair.m > g.n).  Refuses when comb(n, m), which bounds the
    leaves of the subset search, exceeds SUBSET_GUARD."""
    if pair.m > g.n:
        return False
    work = math.comb(g.n, pair.m)
    if work > SUBSET_GUARD:
        raise GuardError(
            f"subset enumeration guard: C({g.n}, {pair.m}) = {work:.4g} > {SUBSET_GUARD:g}"
        )
    return _has_induced_size(g.rows, g.n, pair.m, pair.f)


class ArrowVerdict(Record):
    n: int
    e: int
    pair: PairMF
    arrows: bool
    counterexample: Graph | None


def _least_failures(n: int, e_lo: int, e_hi: int, pair: PairMF) -> dict[int, Graph]:
    """By e in increasing order, the class that fails to arrow the pair with
    the least canonical code (graph6 order).  _classes yields only the
    classes that fail, and a code has one bit per edge."""
    least: dict[int, int] = {}
    for code in _classes(n, e_lo, e_hi, pair):
        e = code.bit_count()
        if e not in least or code < least[e]:
            least[e] = code
    return {e: Graph(n, rows_of(code, n)) for e, code in sorted(least.items())}


def arrows_pair(n: int, e: int, pair: PairMF) -> ArrowVerdict:
    """Does every graph with n vertices and e edges arrow the pair?

    A returned counterexample is the failure with the least canonical code
    (graph6 order).
    """
    _refuse_pair(n, pair)
    _refuse_query(n, e)
    g = _least_failures(n, e, e, pair).get(e)
    return ArrowVerdict(n, e, pair, g is None, g)


class ArrowReport(Record):
    """S_n for one pair: which e force the pair, one non-arrowing graph for the
    rest, and the fixed-n fraction |S| / (binom2(n)+1).

    The fraction is an observation at this n only; it is not the limiting
    density, whose bias at small n is unknown.  Nor does an empty S at one n
    bound n0: S of (5, 5) is empty at n = 6, 7 and 9 but is (14,) at n = 8.
    """

    n: int
    pair: PairMF
    S: tuple[int, ...]
    counterexamples: dict[int, str]
    sigma_estimate: float


def compute_S_n(n: int, pair: PairMF) -> ArrowReport:
    """Full report over e in [0, binom2(n)], refused above n = SWEEP_GUARD.

    One stream over every class on n vertices decides the classes, and each
    e not in S gets its least canonical counterexample.
    """
    _refuse_pair(n, pair)
    if n > SWEEP_GUARD:
        raise GuardError(f"S_n sweep guard: n={n} exceeds {SWEEP_GUARD}")
    total = binom2(n)
    failures = _least_failures(n, 0, total, pair)
    S = tuple(e for e in range(total + 1) if e not in failures)
    counterexamples = {e: to_graph6(g) for e, g in failures.items()}
    return ArrowReport(n, pair, S, counterexamples, len(S) / (total + 1))


# ---------------------------------------------------------------------------
# Explicit clique-plus-forest oracle (independent of the floor criterion)


def _refuse_explicit(m: int) -> None:
    """The explicit oracle's refusal of pairs above ORACLE_MAX_M vertices."""
    if m > ORACLE_MAX_M:
        raise GuardError(
            f"explicit oracle is exponential-free but still guarded to m <= {ORACLE_MAX_M}; "
            f"got m={m} (use the criterion module beyond)"
        )


def clique_forest_oracle(pair: PairMF) -> bool:
    """True iff some explicit clique-plus-forest graph realizes the pair.

    Every clique size x gets graphs.clique_plus_star, the witness builder's
    constructor, with the rest of the budget as its star; the graph's count
    and acyclicity are checked.  It shares no code with the floor bounds."""
    m, f = pair.m, pair.f
    _refuse_explicit(m)
    for x in range(m + 1):
        clique_edges = binom2(x)
        if clique_edges > f:
            break
        g = clique_plus_star(m, x, f - clique_edges)
        if g is None:
            continue
        if g.edge_count() == f and girth(g, range(x, m)) == math.inf:
            return True
        raise AssertionError(f"oracle construction failed for m={m}, f={f}, x={x}")
    return False


def xcheck_clique_forest(max_m: int) -> tuple[int, list[dict]]:
    """(pairs checked, mismatches) of clique_forest_oracle against the floor
    decision, criterion.clique_forest_realizable, over every pair with
    m <= max_m; a max_m above ORACLE_MAX_M is refused before any pair."""
    _refuse_explicit(max_m)
    mismatches = []
    checked = 0
    for m in range(1, max_m + 1):
        for f in range(binom2(m) + 1):
            pair = PairMF(m, f)
            search = isinstance(clique_forest_realizable(pair), Realizable)
            brute = clique_forest_oracle(pair)
            checked += 1
            if search != brute:
                mismatches.append({"m": m, "f": f, "search": search, "oracle": brute})
    return checked, mismatches

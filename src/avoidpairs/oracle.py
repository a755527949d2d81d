"""Brute-force ground truth at small scale: isomorphism-free enumeration of
graphs, induced-subgraph arrowing decisions, full S_n reports, and an explicit
clique-plus-forest realization oracle independent of the floor criterion.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

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
    f - e(T) vertices of T makes T and itself induce f edges.  Subsets grow
    one vertex at a time in increasing order, each step adding the edges to
    the vertices already in; e(T) never falls, so a subset past f edges is
    dropped at once."""
    level = [(0, 0, 0)]  # (T so far, e(T), first vertex it may take)
    for left in range(m - 1, 0, -1):
        level = [(t | 1 << v, grown, v + 1) for t, e, start in level
                 for v in range(start, len(rows) - left + 1)
                 if (grown := e + (rows[v] & t).bit_count()) <= f]
    return [(t, f - e) for t, e, _ in level if f - e <= cap]


def _meet_counts(sets: list[int], full: int, top: int) -> list[int]:
    """Entry j, for j <= top: the columns (bit c of ``full`` for column c)
    that lie in exactly j of the column sets ``sets``, by one pass per set
    that moves each of its columns up one count."""
    counts = [full] + [0] * top
    for cols in sets:
        for j in range(top, 0, -1):
            counts[j] = counts[j] & ~cols | counts[j - 1] & cols
        counts[0] &= ~cols
    return counts


def _column_sets(k: int) -> tuple[int, list[int]]:
    """(full, has) over the 2^k columns of a new vertex on k vertices, as
    bitsets with bit c for column c.  Column c is the new vertex's mask, with
    bit v for vertex v; has[v] holds the columns that contain v, which come
    in runs of r = 2^v at period 2r: one run's mask times a 1 at every period."""
    full = (1 << (1 << k)) - 1
    runs = [1 << v for v in range(k)]
    return full, [full // ((1 << 2 * r) - 1) * ((1 << r) - 1 << r) for r in runs]


def _forbidden(rows: tuple[int, ...], m: int, f: int, cap: int, full: int,
               has: list[int], memo: dict[tuple[int, int], int]) -> int:
    """The columns through which a new vertex completes an m-subset with f
    edges: the OR, over the parent's _completions (T, need), of the columns
    that lie in exactly need of the sets has[v], v in T.  memo keeps each
    (T, need)'s columns for this ``has``."""
    forbidden = 0
    for t, need in _completions(rows, m, f, cap):
        if (t, need) not in memo:
            sets = [has[v] for v in range(len(rows)) if t >> v & 1]
            memo[t, need] = _meet_counts(sets, full, need)[need]
        forbidden |= memo[t, need]
    return forbidden


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
    new vertex induces f edges, that is when its mask is one of the parent's
    forbidden columns: one bit of the bitset that _forbidden builds from the
    parent's (m-1)-subsets, the test _least_failures decides its last level
    with.  Not arrowing is hereditary for induced subgraphs, so the
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
    # one column table and (T, need) memo per parent order k that can complete
    columns = {k: (*_column_sets(k), {}) for k in range(m - 1, n)}

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
        forbidden = (_forbidden(rows, m, f, cap, *columns[k])
                     if k + 1 >= m and f - min(e_parent, binom2(m - 1)) <= cap else 0)
        seen: set[int] = set()
        for mask in range(1 << k):
            d = mask.bit_count()
            if (not d_lo <= d <= d_hi or d == top and mask & tops or mask in seen
                    or forbidden >> mask & 1):
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
    """By e in increasing order, the graph6-least graph on n vertices with e
    edges that fails to arrow the pair and whose first n - 1 vertices induce
    a canonical form: a code c yielded by _classes(n - 1, ...).  The least
    failing canonical form would need every failing class labelled, since a
    canonical code is the least over the leaves the refined search reaches,
    not over all labellings.

    The last level labels nothing.  The failing classes on n - 1 vertices
    with max(e_lo - (n - 1), 0) to min(e_hi, binom2(n - 1)) edges are
    streamed as parents.  A child, a parent plus a new vertex with column
    col (code_of's last column, top bit the edge to vertex 0), has code
    c << (n - 1) | col and e(c) + |col| edges.  It fails iff col is not
    among the parent's forbidden columns, the one test _classes prunes
    every level below with (_forbidden), here with the column sets in
    code_of's bit order.  The forbidden columns and the columns of each
    weight (_meet_counts) are bitsets over the 2^(n-1) columns; the lowest
    allowed column of weight e - e(c) is the parent's candidate for e, and
    the least candidate wins.  At n = 1 the one parent is the graph on no
    vertices, which fails every pair."""
    k, m, f = n - 1, pair.m, pair.f
    parents = _classes(k, max(e_lo - k, 0), min(e_hi, binom2(k)), pair) if k else (0,)
    full, has = _column_sets(k)
    has.reverse()  # code_of's last column holds vertex v at bit k - 1 - v
    weights = _meet_counts(has, full, k)
    memo: dict[tuple[int, int], int] = {}
    least: dict[int, int] = {}
    for code in parents:
        e_parent = code.bit_count()
        cap = min(m - 1, e_hi - e_parent)
        allowed = full & ~_forbidden(rows_of(code, k), m, f, cap, full, has, memo)
        for e in range(max(e_lo, e_parent), min(e_hi, e_parent + k) + 1):
            fits = allowed & weights[e - e_parent]
            if fits:
                child = code << k | (fits & -fits).bit_length() - 1
                if child < least.get(e, child + 1):
                    least[e] = child
    return {e: Graph(n, rows_of(code, n)) for e, code in sorted(least.items())}


def arrows_pair(n: int, e: int, pair: PairMF) -> ArrowVerdict:
    """Does every graph with n vertices and e edges arrow the pair?

    A returned counterexample is _least_failures' graph: the graph6-least
    failure whose first n - 1 vertices induce a canonical form (not, in
    general, the least failing canonical form).
    """
    _refuse_pair(n, pair)
    _refuse_query(n, e)
    g = _least_failures(n, e, e, pair).get(e)
    return ArrowVerdict(n, e, pair, g is None, g)


class ArrowReport(Record):
    """S_n for one pair: which e force the pair, one non-arrowing graph for the
    rest (in graph6, the graph6-least failure whose first n - 1 vertices
    induce a canonical form), and the fixed-n fraction |S| / (binom2(n)+1).

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

    One stream over the failing classes on n - 1 vertices decides every
    e, with no labelling on n vertices (_least_failures), and each e not in
    S gets the least failure over those parents' columns.
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

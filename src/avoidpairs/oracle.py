"""Brute-force ground truth at small scale: isomorphism-free enumeration of
graphs, induced-subgraph arrowing decisions, full S_n reports, and an explicit
clique-plus-forest realization oracle independent of the floor criterion.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .canon import _encode, _twins, canonical_rows, root_partition
from .criterion import PairMF
from .errors import DomainError, GuardError
from .exactarith import binom2
from .graphs import Graph, girth, to_graph6

DEFAULT_QUERY_GUARD = 10  # single (n, e) enumeration
SWEEP_GUARD = 9           # full levels: S_n sweeps and class counts
ORACLE_MAX_M = 12
SUBSET_GUARD = 10**8      # comb(n, m) bounds the leaves of one subset search


def _extend(parent: tuple[int, ...], mask: int) -> tuple[int, ...]:
    k = len(parent)
    return tuple(parent[i] | ((mask >> i & 1) << k) for i in range(k)) + (mask,)


def _edge_count(rows: tuple[int, ...]) -> int:
    return sum(r.bit_count() for r in rows) // 2


def _twin_steps(rows: tuple[int, ...]) -> list[tuple[int, int]]:
    """(u, w) for each vertex w with a twin u < w, u the largest such: masks
    whose bits on every twin class form a prefix of the class reach every
    child up to an automorphism of the parent."""
    steps = []
    for w in range(len(rows)):
        u = next((u for u in range(w - 1, -1, -1) if _twins(rows, u, w)), None)
        if u is not None:
            steps.append((u, w))
    return steps


def _all_classes(n: int, e_lo: int, e_hi: int) -> tuple[tuple[int, ...], ...]:
    """Every isomorphism class on n vertices with e_lo <= e <= e_hi edges, as
    canonical rows sorted by the upper-triangle encoding (graph6 order).

    Built by canonical augmentation (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998).  The canonical deletion orbit of a
    graph is the orbit of the vertex with the largest canonical index, which
    lies in the last cell of the root equitable partition.  An isomorphism
    carries canonical labellings onto canonical labellings up to an
    automorphism, so it carries the canonical deletion orbit onto that of the
    image.  A child, parent + new vertex, is kept only if the new vertex lies
    in that orbit.  Cells of the root partition are unions of orbits, so a
    child whose new vertex is outside the last cell is rejected after one
    refinement; the rest are labelled once, which gives both the canonical
    form and the orbits.  The last cell holds only vertices of the largest
    degree, so most children already fail on degree, which the parent's
    degrees and the mask decide without building the child.
    - Orbits: the automorphisms the labelling records, leaves tying the best
      and twin swaps, generate Aut(G).  Twin pruning skips the child of w at
      a search node only when w is a twin of an explored sibling r; the swap
      of r and w is recorded, fixes the node's individualized vertices, and
      maps the skipped child onto the explored one.  By induction on depth,
      a product of recorded generators maps every node of the unpruned tree
      onto an explored node.  An automorphism g maps the first best leaf onto
      a leaf with the same encoding, which such a product maps onto an
      explored best leaf; that leaf was recorded as the image of the first
      best leaf.  An automorphism is fixed by the image of one leaf, so g is
      a product of recorded generators.
    - Complete: for G on k+1 vertices and w in its canonical orbit, G - w is
      isomorphic to one parent P of level k, and the matching mask on P gives
      a child isomorphic to G whose new vertex is the image of w, so that
      child is kept.  Permuting the mask within a twin class of P gives an
      isomorphic child, so prefix masks on twin classes suffice.
    - Unique up to siblings: if kept children of P and P' are isomorphic, an
      isomorphism maps one new vertex into the other's orbit, so P and P'
      are isomorphic, hence equal, as a level holds one graph per class.
      Kept siblings can still be isomorphic (masks related by an
      automorphism of P), so they are deduplicated per parent, by canonical
      form, which is also the form a level keeps.
    A child on k+1 vertices is kept only if the window is still reachable
    from it: at most e_hi edges, and at least e_lo once every edge outside
    its k+1 vertices is added.  The chain of canonical deletions from a graph
    in the window consists of induced subgraphs of it, which pass both
    tests, so the pruning loses no class; on the last vertex the two tests
    are the window itself.  At n = 1 the window must contain 0.
    """
    if n < 1:
        raise DomainError(f"enumeration needs n >= 1, got {n}")
    total = binom2(n)
    level: list[tuple[int, ...]] = [(0,)]
    for k in range(1, n):
        cap_after = total - binom2(k + 1)  # edges still addable beyond k+1 vertices
        nxt: list[tuple[int, ...]] = []
        for parent in level:
            deg = [r.bit_count() for r in parent]
            e_parent = sum(deg) // 2
            steps = _twin_steps(parent)
            children: set[tuple[int, ...]] = set()
            # the new vertex takes the largest degree d = |mask|, so
            # d >= top and the parent's vertices of degree top stay out of
            # the mask when d = top
            top = max(deg)
            tops = sum(1 << v for v in range(k) if deg[v] == top)
            d_lo = max(top, e_lo - cap_after - e_parent)
            d_hi = e_hi - e_parent
            for mask in range(1 << k):
                d = mask.bit_count()
                if (not d_lo <= d <= d_hi or d == top and mask & tops
                        or any(mask >> w & 1 > mask >> u & 1 for u, w in steps)):
                    continue
                child = _extend(parent, mask)
                root = root_partition(child, k + 1)
                if k not in root[-1]:
                    continue
                form, orbits = canonical_rows(child, k + 1, root)
                if orbits[k] == k:
                    children.add(form)
            nxt.extend(children)
        level = nxt
    identity = list(range(n))
    return tuple(sorted(level, key=lambda rs: _encode(rs, identity)))


def _refuse_above(n: int, guard: int, what: str) -> None:
    if n > guard:
        raise GuardError(f"{what} guard: n={n} exceeds {guard}")


def enumerate_graphs(n: int, e: int, query_guard: int = DEFAULT_QUERY_GUARD) -> Iterator[Graph]:
    """Yield one representative per isomorphism class with n vertices, e edges,
    in canonical (graph6) order.

    Only the edge window (e, e) is built, at every n, so a query never pays
    for the classes of other edge counts."""
    if n < 1:
        raise DomainError(f"enumeration needs n >= 1, got {n}")
    if not 0 <= e <= binom2(n):
        raise DomainError(f"edge count must satisfy 0 <= e <= {binom2(n)}, got {e}")
    _refuse_above(n, query_guard, "enumeration")
    for rows in _all_classes(n, e, e):
        yield Graph(n, list(rows))


def class_counts(n: int) -> dict[int, int]:
    """Isomorphism-class counts on n vertices keyed by edge count, bucketed
    from one build of the full level on n vertices."""
    _refuse_above(n, SWEEP_GUARD, "class count")
    counts = Counter(_edge_count(rows) for rows in _all_classes(n, 0, binom2(n)))
    return dict(sorted(counts.items()))


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


@dataclass(frozen=True)
class ArrowVerdict:
    n: int
    e: int
    pair: PairMF
    arrows: bool
    counterexample: Graph | None


def arrows_pair(
    n: int, e: int, pair: PairMF, query_guard: int = DEFAULT_QUERY_GUARD
) -> ArrowVerdict:
    """Does every graph with n vertices and e edges arrow the pair?

    Classes are scanned in canonical order, so a returned counterexample is
    the lexicographically least canonical form among the failures.
    """
    if pair.m > n:
        raise DomainError(f"pair order {pair.m} exceeds n={n}")
    for g in enumerate_graphs(n, e, query_guard=query_guard):
        if not arrows(g, pair):
            return ArrowVerdict(n, e, pair, False, g)
    return ArrowVerdict(n, e, pair, True, None)


@dataclass(frozen=True)
class ArrowReport:
    """S_n for one pair: which e force the pair, one non-arrowing graph for the
    rest, and the fixed-n fraction |S| / (binom2(n)+1).

    The fraction is an observation at this n only; it is not the limiting
    density, whose bias at small n is unknown.
    """

    n: int
    pair: PairMF
    S: tuple[int, ...]
    counterexamples: dict[int, str]
    sigma_estimate: float


def compute_S_n(n: int, pair: PairMF) -> ArrowReport:
    """Full report over e in [0, binom2(n)], refused above n = SWEEP_GUARD.

    The level on n vertices is built once and every class is decided in one
    pass in graph6 order, so the first failure at each e is the least
    canonical counterexample; once e has one, its later classes are skipped.
    """
    _refuse_above(n, SWEEP_GUARD, "S_n sweep")
    if pair.m > n:
        raise DomainError(f"pair order {pair.m} exceeds n={n}")
    total = binom2(n)
    counterexamples: dict[int, str] = {}
    for rows in _all_classes(n, 0, total):
        e = _edge_count(rows)
        if e not in counterexamples:
            g = Graph(n, list(rows))
            if not arrows(g, pair):
                counterexamples[e] = to_graph6(g)
    S = tuple(e for e in range(total + 1) if e not in counterexamples)
    return ArrowReport(n, pair, S, dict(sorted(counterexamples.items())), len(S) / (total + 1))


# ---------------------------------------------------------------------------
# Explicit clique-plus-forest oracle (independent of the floor criterion)


def clique_forest_oracle(pair: PairMF) -> bool:
    """True iff some explicit clique-plus-forest graph realizes the pair.

    Enumerates every clique size x and builds an actual star forest with the
    remaining edge budget, verifying acyclicity and the total count on the
    constructed graph.  Deliberately shares no code with the floor bounds."""
    m, f = pair.m, pair.f
    if m > ORACLE_MAX_M:
        raise GuardError(
            f"explicit oracle is exponential-free but still guarded to m <= {ORACLE_MAX_M}; "
            f"got m={m} (use the criterion module beyond)"
        )
    for x in range(m + 1):
        clique_edges = binom2(x)
        if clique_edges > f:
            break
        rest = m - x
        extra = f - clique_edges
        if rest == 0:
            if extra == 0:
                return True
            continue
        if extra > rest - 1:
            continue
        g = Graph(m)
        for u in range(x):
            for v in range(u + 1, x):
                g.add_edge(u, v)
        for i in range(extra):
            g.add_edge(x, x + 1 + i)
        forest_part = Graph(rest, [r >> x for r in g.rows[x:]])
        if g.edge_count() == f and girth(forest_part) == math.inf:
            return True
        raise AssertionError(f"oracle construction failed for m={m}, f={f}, x={x}")
    return False

"""Brute-force ground truth at small scale: isomorphism-free enumeration of
graphs, induced-subgraph arrowing decisions, full S_n reports, and an explicit
clique-plus-forest realization oracle independent of the floor criterion.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .canon import _encode, canonical_rows
from .criterion import PairMF
from .errors import DomainError, GuardError
from .exactarith import binom2
from .graphs import Graph, girth, to_graph6

DEFAULT_QUERY_GUARD = 10  # single (n, e) enumeration
SWEEP_GUARD = 9           # full levels: S_n sweeps and class counts
ORACLE_MAX_M = 12


def class_count_estimate(n: int) -> int:
    """Rough isomorphism-class count, 2^binom2(n) / n!."""
    return max(1, (1 << binom2(n)) // math.factorial(n))


def _extend(parent: tuple[int, ...], mask: int) -> tuple[int, ...]:
    k = len(parent)
    return tuple(parent[i] | ((mask >> i & 1) << k) for i in range(k)) + (mask,)


def _edge_count(rows: tuple[int, ...]) -> int:
    return sum(r.bit_count() for r in rows) // 2


@lru_cache(maxsize=None)
def _all_classes(n: int, e_lo: int, e_hi: int) -> tuple[tuple[int, ...], ...]:
    """Every isomorphism class on n vertices with e_lo <= e <= e_hi edges, as
    canonical rows sorted by the upper-triangle encoding (graph6 order).

    Built by vertex augmentation: each n-class arises from some (n-1)-class
    by attaching one vertex, so extending every parent with every neighbor
    mask and deduplicating by canonical form is complete.  A child on k+1
    vertices is kept only if the window is still reachable from it: at most
    e_hi edges, and at least e_lo once every edge outside its k+1 vertices is
    added.  Every induced subgraph of a graph in the window passes both
    tests, so the pruning loses no class, and on the last vertex the two
    tests are the window itself.  At n = 1 the window must contain 0.
    """
    if n < 1:
        raise DomainError(f"enumeration needs n >= 1, got {n}")
    total = binom2(n)
    level: set[tuple[int, ...]] = {(0,)}
    for k in range(1, n):
        cap_after = total - binom2(k + 1)  # edges still addable beyond k+1 vertices
        nxt: set[tuple[int, ...]] = set()
        for parent in level:
            e_parent = _edge_count(parent)
            for mask in range(1 << k):
                e_child = e_parent + mask.bit_count()
                if e_child > e_hi or e_child + cap_after < e_lo:
                    continue
                nxt.add(canonical_rows(_extend(parent, mask), k + 1))
        level = nxt
    identity = list(range(n))
    return tuple(sorted(level, key=lambda rs: _encode(rs, identity)))


def _refuse_above(n: int, guard: int, what: str) -> None:
    if n > guard:
        raise GuardError(
            f"{what} guard: n={n} exceeds {guard} "
            f"(roughly {class_count_estimate(n):.3g} classes)"
        )


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
    from the same full level an S_n sweep builds."""
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


def induced_size_set(g: Graph, m: int) -> frozenset[int]:
    """All induced edge counts over m-subsets of g."""
    if not 0 < m <= g.n:
        raise DomainError(f"need 1 <= m <= {g.n}, got m={m}")
    rows = g.rows
    n = g.n
    sizes: set[int] = set()

    def rec(start: int, mask: int, j: int, count: int) -> None:
        if j == m:
            sizes.add(count)
            return
        for v in range(start, n - (m - j) + 1):
            rec(v + 1, mask | (1 << v), j + 1, count + (rows[v] & mask).bit_count())

    rec(0, 0, 0, 0)
    return frozenset(sizes)


def arrows(g: Graph, pair: PairMF) -> bool:
    """True iff g has an induced subgraph on pair.m vertices with pair.f edges."""
    if pair.m > g.n:
        raise DomainError(f"arrows needs pair.m <= n, got m={pair.m} > n={g.n}")
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


def clique_forest_oracle(pair: PairMF, max_m: int = ORACLE_MAX_M) -> bool:
    """True iff some explicit clique-plus-forest graph realizes the pair.

    Enumerates every clique size x and builds an actual star forest with the
    remaining edge budget, verifying acyclicity and the total count on the
    constructed graph.  Deliberately shares no code with the floor bounds."""
    m, f = pair.m, pair.f
    if m > max_m:
        raise GuardError(
            f"explicit oracle is exponential-free but still guarded to m <= {max_m}; "
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

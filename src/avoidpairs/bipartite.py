"""Constructive biclique-plus-forest decomposition for bipartite pairs.

Every bipartite pair (m, f) with f <= floor(m^2/2), meaning m vertices on each
side and f edges, is realized as a vertex-disjoint union of a complete
bipartite graph and a forest.  This is exactly why the clique-plus-forest
obstruction used in the non-bipartite setting has no bipartite analogue.
"""

from __future__ import annotations

from .errors import DomainError
from .records import Record


class BipartitePair(Record):
    """m vertices on each side, f edges, 0 <= f <= m^2."""

    m: int
    f: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError(f"bipartite order must be >= 1, got m={self.m}")
        if not 0 <= self.f <= self.m * self.m:
            raise DomainError(
                f"bipartite size must satisfy 0 <= f <= {self.m * self.m}, got f={self.f}"
            )


class BicliqueForestDecomp(Record):
    """Biclique K_{x,y} on left [0, x) / right [0, y), plus forest edges on the
    leftover vertices (absolute indices: left in [x, m), right in [y, m))."""

    m: int
    f: int
    x: int
    y: int
    forest_edges: tuple[tuple[int, int], ...]
    case: int


def _caterpillar(x: int, y: int, a: int, b: int, count: int) -> tuple[tuple[int, int], ...]:
    """First `count` edges of a deterministic spanning forest on the leftover
    parts of sizes a (left) and b (right): a double star through (x, y)."""
    edges = [(x, y + j) for j in range(b)] + [(x + i, y) for i in range(1, a)]
    if count > len(edges):
        raise AssertionError(f"forest budget {count} exceeds capacity {len(edges)}")
    return tuple(edges[:count])


def bipartite_realize(pair: BipartitePair) -> BicliqueForestDecomp:
    """Decompose (m, f) with f <= floor(m^2/2) as biclique plus forest.

    With x = floor(m/2) and y the largest integer with x*y <= f, the three
    cases are: y < m (biclique K_{x,y} plus a forest holding the remainder,
    which is below x; at y = 0, x is set to 0 and the forest is a star of f
    edges); y = m (even m forces f = m^2/2 and K_{m/2,m}; odd
    m = 2k+1 uses K_{k+1,2k-1} plus a small forest); y = m + 1 (odd m only,
    f = floor(m^2/2) exactly, realized by K_{2k,k+1} and isolated vertices).
    """
    m, f = pair.m, pair.f
    if f > m * m // 2:
        raise DomainError(
            f"construction defined for f <= floor(m^2/2) = {m * m // 2}, got f={f}; "
            f"realize the complement (m, m^2 - f) instead"
        )
    x = m // 2
    y = f // x if x else 0  # x == 0 only at m == 1, where f == 0
    if y == 0:  # f < x: no biclique, the forest is a bare star from left vertex 0
        x = 0
    if y < m:
        extra = f - x * y
        return BicliqueForestDecomp(
            m, f, x, y, _caterpillar(x, y, m - x, m - y, extra), 1
        )
    if y == m:
        if m % 2 == 0:
            # x*m = m^2/2 <= f <= m^2/2 forces equality: biclique alone
            return BicliqueForestDecomp(m, f, x, m, (), 2)
        k = m // 2
        bx, by = k + 1, 2 * k - 1
        extra = f - bx * by
        return BicliqueForestDecomp(
            m, f, bx, by, _caterpillar(bx, by, m - bx, m - by, extra), 2
        )
    if y == m + 1:
        # only reachable for odd m with f = floor(m^2/2) = 2k^2 + 2k
        k = m // 2
        if m % 2 == 0 or f != 2 * k * k + 2 * k:
            raise AssertionError(f"unexpected overshoot: m={m}, f={f}, y={y}")
        return BicliqueForestDecomp(m, f, 2 * k, k + 1, (), 3)
    raise AssertionError(f"y = {y} out of range for m={m}, f={f}")


class BipartiteVerdict(Record):
    passed: bool
    failures: tuple[str, ...]


def verify_bipartite_decomp(d: BicliqueForestDecomp, pair: BipartitePair) -> BipartiteVerdict:
    """Check side capacities, the exact edge count x*y + |forest|, disjointness
    of forest vertices from the biclique, and forest acyclicity (union-find)."""
    failures: list[str] = []
    m = pair.m
    if not (0 <= d.x <= m and 0 <= d.y <= m):
        failures.append("capacity")
    if d.x * d.y + len(d.forest_edges) != pair.f:
        failures.append("count")
    if len(set(d.forest_edges)) != len(d.forest_edges):
        failures.append("duplicate-edges")
    for li, rj in d.forest_edges:
        if not (d.x <= li < m and d.y <= rj < m):
            failures.append("disjointness")
            break
    # union-find over leftover vertices; left i -> node i, right j -> node m + j
    root: dict[int, int] = {}

    def find(a: int) -> int:
        while root.setdefault(a, a) != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for li, rj in d.forest_edges:
        ra, rb = find(li), find(m + rj)
        if ra == rb:
            failures.append("acyclic")
            break
        root[ra] = rb
    return BipartiteVerdict(passed=not failures, failures=tuple(failures))

"""Witness graphs: a clique joined with a girth-bounded part, and their
structural verification.

A verified witness with girth bound above m, whose pair (or complement pair,
for complemented witnesses) is clique-plus-forest impossible, shows the graph
does not arrow the pair without enumerating subsets: every induced subgraph on
at most m vertices of a clique-plus-high-girth graph is a clique plus forest.
At small scale, oracle.arrows checks the same claim by subset search.
"""

from __future__ import annotations


from .criterion import Impossible, PairMF, clique_forest_realizable
from .errors import DomainError, GuardError
from .exactarith import binom2, surd_floor
from .graphs import Graph, clique_plus_star, girth
from .records import Record

BUILD_GUARD = 2000  # n; the graph, its graph6 and its CLI record grow as binom2(n)


class WitnessGraph(Record):
    """A graph plus its structural certificate.

    If complemented is set, the clique/girth structure lives in the complement
    of `graph`, and certificates about `graph` go through the complement pair.
    """

    graph: Graph
    clique_vertices: frozenset[int]
    girth_part: frozenset[int]
    girth_bound: int
    complemented: bool

    def structure_graph(self) -> Graph:
        return self.graph.complement() if self.complemented else self.graph


class Infeasible(Record):
    """The extra edges do not fit as a star on the girth part; diagnostic counts."""

    n: int
    e: int
    p: int
    k: int
    placed: int
    missing: int
    reason: str


class WitnessVerdict(Record):
    """The checks' outcome, and the girth of the girth part in the
    structure graph (math.inf for a forest), which the build record shows."""

    passed: bool
    failures: tuple[str, ...]
    part_girth: int | float


def _edge_total(n: int, e: int) -> int:
    """binom2(n), after refusing n outside [0, BUILD_GUARD] and e outside [0, binom2(n)]."""
    if n < 0:
        raise DomainError(f"vertex count must be >= 0, got {n}")
    if n > BUILD_GUARD:
        raise GuardError(f"witness build guard: n={n} exceeds {BUILD_GUARD}")
    total = binom2(n)
    if not 0 <= e <= total:
        raise DomainError(f"edge count must satisfy 0 <= e <= {total}, got {e}")
    return total


def build_witness(n: int, e: int, p: int) -> WitnessGraph | Infeasible:
    """graphs.clique_plus_star(n, k, extra): K_k on vertices 0..k-1, with k
    the R floor (binom2(k) <= e < binom2(k+1); k = 0 for e = 0), plus a star
    at vertex k with leaves k+1, ..., k+extra, where extra = e - binom2(k).
    The girth part is a forest, so its girth is above every bound p >= 3.

    When the star does not fit the result is Infeasible with placed =
    max(n - k - 1, 0): a star that spans the girth part leaves every two of
    its vertices at distance <= 2, so no further edge avoids a triangle."""
    _edge_total(n, e)
    if p < 3:
        raise DomainError(f"girth bound must be >= 3, got {p}")
    k = surd_floor(1, 8 * e + 1) if e else 0
    extra = e - binom2(k)
    g = clique_plus_star(n, k, extra)
    if g is None:
        placed = max(n - k - 1, 0)
        # the wording predates this construction; the golden witness hashes pin it
        return Infeasible(
            n=n, e=e, p=p, k=k, placed=placed, missing=extra - placed,
            reason=f"greedy insertion placed {placed} of {extra} extra edges on "
                   f"{n - k} vertices without closing a cycle of length <= {p}",
        )
    return WitnessGraph(
        graph=g,
        clique_vertices=frozenset(range(k)),
        girth_part=frozenset(range(k, n)),
        girth_bound=p,
        complemented=False,
    )


def build_witness_or_complement(n: int, e: int, p: int) -> WitnessGraph | Infeasible:
    """Build directly for e below half the total edge count, otherwise build
    the complement's structure and mark the witness complemented."""
    total = _edge_total(n, e)
    if 2 * e <= total + 1:  # e <= ceil(total / 2)
        return build_witness(n, e, p)
    built = build_witness(n, total - e, p)
    if isinstance(built, Infeasible):
        return built
    return WitnessGraph(
        graph=built.graph.complement(),
        clique_vertices=built.clique_vertices,
        girth_part=built.girth_part,
        girth_bound=p,
        complemented=True,
    )


def verify_witness(w: WitnessGraph, pair: PairMF) -> WitnessVerdict:
    """PASS iff the structure is intact and the relevant pair orientation is
    clique-plus-forest impossible.

    Structural checks (on the complement when flagged): the two parts
    partition the vertex set, the clique part induces a complete graph,
    no edges cross between parts, and the girth part has girth above both
    the declared bound and pair.m.  The realizability check targets the
    pair itself for direct witnesses and the complement pair otherwise.
    A PASS certifies that w.graph does not arrow the pair."""
    failures: list[str] = []
    s = w.structure_graph()
    n = s.n
    clique = w.clique_vertices
    rest = w.girth_part
    if clique & rest or clique | rest != frozenset(range(n)):
        failures.append("partition")
    clique_mask = sum(1 << v for v in clique)
    rest_mask = sum(1 << v for v in rest)
    if any((s.rows[v] & clique_mask).bit_count() != len(clique) - 1 for v in clique):
        failures.append("clique-complete")
    if any(s.rows[v] & rest_mask for v in clique):
        failures.append("cross-edges")
    part_girth = girth(s, rest)
    if not part_girth > max(w.girth_bound, pair.m):
        failures.append("girth")
    target = pair.complement() if w.complemented else pair
    if not isinstance(clique_forest_realizable(target), Impossible):
        failures.append("realizable")
    return WitnessVerdict(passed=not failures, failures=tuple(failures), part_girth=part_girth)


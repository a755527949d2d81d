"""Test-only helpers: independent reference implementations, Graph-level
canonical forms, and small queries over scanner records that the package
itself does not need."""

from __future__ import annotations

from dataclasses import dataclass

from avoidpairs.canon import _encode, canonical_rows
from avoidpairs.errors import DomainError, GuardError
from avoidpairs.exactarith import binom2
from avoidpairs.graphs import Graph


def canonical_graph(g: Graph) -> Graph:
    return Graph(g.n, list(canonical_rows(tuple(g.rows), g.n)))


def canonical_key(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Hashable isomorphism invariant: (n, canonical adjacency rows)."""
    return (g.n, canonical_rows(tuple(g.rows), g.n))


def smallest_clique_size_linear(m: int, f: int) -> int | None:
    """Smallest clique size x such that (m, f) is K_x plus a forest on the
    other m - x vertices, by a linear scan over x; None when no x works."""
    for x in range(m + 1):
        clique_edges = binom2(x)
        if clique_edges > f:
            break
        rest = m - x
        budget = rest - 1 if rest >= 1 else 0
        if f - clique_edges <= budget:
            return x
    return None


@dataclass(frozen=True)
class TableQ:
    """q(m) looked up from an explicit table; missing m raises DomainError."""

    table: dict

    def __call__(self, m: int) -> int:
        try:
            return self.table[m]
        except KeyError:
            raise DomainError(f"q table has no entry for m={m}") from None


def scan_hits(records: list[dict]) -> list[int]:
    """The m values of "hit" records."""
    return [rec["m"] for rec in records if rec.get("status") == "hit"]


def first_persistent_m(records: list[dict]) -> int | None:
    """Smallest scanned m from which every later record has a holding branch.

    Reports an observation over the scanned range only; no claim is made that
    the boundary is tight beyond it.
    """
    last_bad = None
    for rec in records:
        if rec["which"] == "none":
            last_bad = rec["m"]
    if last_bad is None:
        return records[0]["m"] if records else None
    later = [rec["m"] for rec in records if rec["m"] > last_bad]
    return later[0] if later else None


def labeled_class_counts(n: int) -> dict[int, int]:
    """Independent recount: enumerate all labeled graphs on n vertices and
    deduplicate by canonical form.  Exponential; guarded to n <= 6."""
    if n > 6:
        raise GuardError(f"labeled recount is 2^binom2(n) work; n <= 6 only, got {n}")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    seen: dict[int, set[tuple[int, ...]]] = {}
    for word in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (i, j) in enumerate(pairs):
            if word >> idx & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        e = sum(r.bit_count() for r in rows) // 2
        seen.setdefault(e, set()).add(canonical_rows(tuple(rows), n))
    return {e: len(forms) for e, forms in sorted(seen.items())}


def classes_by_set_dedup(n: int, e_lo: int, e_hi: int) -> tuple[tuple[int, ...], ...]:
    """Reference for oracle._all_classes: extend every class on k vertices by
    every neighbor mask, label every child canonically and deduplicate in one
    set per level.  Children that can no longer reach the edge window are
    dropped, as there.  Canonical rows in graph6 order."""
    total = binom2(n)
    level = {(0,)}
    for k in range(1, n):
        cap_after = total - binom2(k + 1)
        nxt = set()
        for parent in level:
            e_parent = sum(r.bit_count() for r in parent) // 2
            for mask in range(1 << k):
                e_child = e_parent + mask.bit_count()
                if e_child > e_hi or e_child + cap_after < e_lo:
                    continue
                child = tuple(r | (mask >> i & 1) << k for i, r in enumerate(parent)) + (mask,)
                nxt.add(canonical_rows(child, k + 1))
        level = nxt
    return tuple(sorted(level, key=lambda rows: _encode(rows, list(range(n)))))

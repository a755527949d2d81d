"""Canonical labeling for small graphs (n <= 16).

Iterated degree refinement plus individualization backtracking over ordered
partitions; the canonical form is the minimum upper-triangle encoding over all
discrete partitions the search reaches.  Collapsing twin vertices (equal
neighborhoods outside the pair) keeps high-symmetry graphs such as empty
graphs, cliques, and unions of cliques from exploding the branch count.

The hot-path entry points work on bare adjacency-row tuples; Graph wrappers
sit on top.
"""

from __future__ import annotations

from .errors import DomainError
from .graphs import Graph


def _refine(rows: tuple[int, ...], cells: list[list[int]]) -> list[list[int]]:
    """Stable equitable refinement: split cells by neighbor counts into every
    cell until nothing splits; bucket order is by sorted count vector."""
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                rv = rows[v]
                sig = tuple((rv & mk).bit_count() for mk in masks)
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(buckets):
                    new_cells.append(buckets[sig])
        cells = new_cells
        if not changed:
            return cells


def _twin_representatives(rows: tuple[int, ...], cell: list[int]) -> list[int]:
    """One representative per twin class: u, w are twins when their rows agree
    after masking out the pair itself, so swapping them is an automorphism and
    branching on both can only repeat the same minimum."""
    reps: list[int] = []
    for v in cell:
        rv = rows[v]
        bv = 1 << v
        for r in reps:
            keep = ~(bv | (1 << r))
            if rv & keep == rows[r] & keep:
                break
        else:
            reps.append(v)
    return reps


def _encode(rows: tuple[int, ...], order: list[int]) -> int:
    """Upper-triangle bits (column-major) of the relabeled graph as one int."""
    enc = 0
    for j in range(1, len(order)):
        rj = rows[order[j]]
        for i in range(j):
            enc = enc << 1 | (rj >> order[i] & 1)
    return enc


def canonical_order_rows(rows: tuple[int, ...], n: int) -> list[int]:
    """A relabeling (new index -> old vertex) realizing the canonical form."""
    if n > 16:
        raise DomainError(f"canonical labeling supports n <= 16, got {n}")
    if n == 0:
        return []
    best_enc: int | None = None
    best_order: list[int] = list(range(n))

    def descend(cells: list[list[int]]) -> None:
        nonlocal best_enc, best_order
        idx = next((i for i, c in enumerate(cells) if len(c) > 1), None)
        if idx is None:
            order = [c[0] for c in cells]
            enc = _encode(rows, order)
            if best_enc is None or enc < best_enc:
                best_enc = enc
                best_order = order
            return
        cell = cells[idx]
        for v in _twin_representatives(rows, cell):
            rest = [w for w in cell if w != v]
            descend(_refine(rows, cells[:idx] + [[v], rest] + cells[idx + 1 :]))

    descend(_refine(rows, [list(range(n))]))
    return best_order


def canonical_rows(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Adjacency rows of the canonically labeled graph."""
    order = canonical_order_rows(rows, n)
    pos = [0] * n
    for new, old in enumerate(order):
        pos[old] = new
    out = [0] * n
    for old_u in range(n):
        r = rows[old_u]
        nu = pos[old_u]
        while r:
            b = r & -r
            out[nu] |= 1 << pos[b.bit_length() - 1]
            r ^= b
    return tuple(out)


def canonical_order(g: Graph) -> list[int]:
    return canonical_order_rows(tuple(g.rows), g.n)


def canonical_graph(g: Graph) -> Graph:
    return Graph(g.n, list(canonical_rows(tuple(g.rows), g.n)))


def canonical_key(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Hashable isomorphism invariant: (n, canonical adjacency rows)."""
    return (g.n, canonical_rows(tuple(g.rows), g.n))

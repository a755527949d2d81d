"""Canonical labeling for small graphs (n <= 16).

Iterated degree refinement plus individualization backtracking over ordered
partitions; the canonical form is the minimum upper-triangle encoding over all
discrete partitions the search reaches.  Collapsing twin vertices (equal
neighborhoods outside the pair) keeps high-symmetry graphs such as empty
graphs, cliques, and unions of cliques from exploding the branch count.

The entry points work on bare adjacency-row tuples.
"""

from __future__ import annotations

from .errors import DomainError


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


def _twins(rows: tuple[int, ...], u: int, w: int) -> bool:
    """u and w have the same neighbors outside {u, w}, so swapping them is an
    automorphism.  Being twins is an equivalence relation."""
    keep = ~(1 << u | 1 << w)
    return rows[u] & keep == rows[w] & keep


def _twin_representatives(rows: tuple[int, ...], cell: list[int]) -> list[int]:
    """One representative per twin class: branching on two twins can only
    repeat the same minimum."""
    reps: list[int] = []
    for v in cell:
        if not any(_twins(rows, r, v) for r in reps):
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


def canonical_order_rows(
    rows: tuple[int, ...], n: int, first: int | None = None
) -> list[int]:
    """A relabeling (new index -> old vertex) realizing the canonical form.

    With ``first`` the search starts from the partition [[first], rest], so
    the form is canonical for the pair (graph, first) and puts first at index
    0: two vertices get equal pointed forms iff an automorphism maps one to
    the other."""
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

    if first is None or n == 1:
        cells = [list(range(n))]
    else:
        cells = [[first], [v for v in range(n) if v != first]]
    descend(_refine(rows, cells))
    return best_order


def canonical_rows(
    rows: tuple[int, ...], n: int, first: int | None = None
) -> tuple[int, ...]:
    """Adjacency rows of the canonically labeled graph (pointed at ``first``
    when given, see canonical_order_rows)."""
    order = canonical_order_rows(rows, n, first)
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

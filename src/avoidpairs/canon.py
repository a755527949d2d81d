"""Canonical labeling for small graphs (n <= 16).

Equitable refinement plus individualization backtracking over ordered
partitions; the canonical form is the minimum upper-triangle code
(graphs.code_of) over all discrete partitions the search reaches.
Collapsing twin vertices (equal neighborhoods outside the pair), found once
per graph, keeps high-symmetry graphs such as empty graphs, cliques, and
unions of cliques from exploding the branch count.  A labelling returns the
canonical code, the canonical order, and generators of the automorphism
group, under which ``orbit`` walks orbits; graphs.rows_of turns a code back
into rows.

The entry points work on bare adjacency-row tuples.
"""

from __future__ import annotations

from .errors import DomainError
from .graphs import code_of

MAX_N = 16  # a neighbor count is packed in 4 bits


def _refine(
    rows: tuple[int, ...], cells: list[list[int]], splitters: list[int]
) -> list[list[int]]:
    """Stable equitable refinement.

    A pass splits every cell by its vertices' neighbor counts into the
    ``splitters`` (cell masks in partition order), packed 4 bits a count into
    one int (n <= 16, so a count is at most 15), and puts the buckets in
    increasing order in place of the cell; it stops when no cell splits.  The
    caller passes every cell, or only [v] after individualizing v in an
    equitable partition (which splits v's cell into [v] and the rest).  A
    later pass splits only against the buckets the last pass made, minus the
    last bucket of each split cell.  Two vertices of one cell have equal
    counts into every cell of the previous partition, and the count into a
    dropped bucket follows from the counts into its siblings, which come
    before it in the vector.  So each pass makes the same buckets, in the
    same order, as a pass against every cell would.
    """
    while splitters:
        new_cells: list[list[int]] = []
        changed: list[int] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                rv = rows[v]
                sig = 0
                for mk in splitters:
                    sig = sig << 4 | (rv & mk).bit_count()
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
                continue
            sigs = sorted(buckets)
            for sig in sigs[:-1]:
                bucket = buckets[sig]
                new_cells.append(bucket)
                mask = 0
                for v in bucket:
                    mask |= 1 << v
                changed.append(mask)
            new_cells.append(buckets[sigs[-1]])
        cells = new_cells
        splitters = changed
    return cells


def root_partition(rows: tuple[int, ...], n: int) -> list[list[int]]:
    """The equitable partition the search starts from, the refinement of
    [all].  Its cells are unions of orbits, and the last cell holds only
    vertices of the largest degree.  Needs n >= 1."""
    return _refine(rows, [list(range(n))], [(1 << n) - 1])


def canonical_rows(
    rows: tuple[int, ...], n: int, root: list[list[int]] | None = None
) -> tuple[int, list[int], list[list[int]]]:
    """The canonical code (the least code_of over the leaves the search
    reaches), the canonical order (new index -> old vertex) that encodes to
    it, and generators of the automorphism group in the input's labels
    (vertex -> image), for 0 <= n <= MAX_N.  ``root`` may pass
    root_partition(rows, n) when the caller has it.  For one n, codes sort
    as graph6 strings do, and rows_of(code, n) is the canonical graph.

    Twins (same neighbors outside the pair) are found once: non-adjacent
    twins have equal neighborhoods, adjacent ones equal closed
    neighborhoods, no neighborhood equals a closed one, and no vertex has
    twins of both kinds, so one dict keyed by both finds each vertex's first
    twin in its root cell (a twin swap is an automorphism, so twins share
    one).  A node branches on the first vertex of each twin class in its
    target cell.  The generators are the swap of each vertex with its first
    twin and each leaf tying the best encoding, mapped from the best leaf.

    They generate Aut(G).  A node skips the child of w only when w is a twin
    of an explored sibling r; the swap of r and w, a product of recorded
    swaps, fixes the node's individualized vertices and maps the skipped
    child onto the explored one.  By induction on depth, a product of
    recorded generators maps every node of the unpruned tree onto an
    explored node.  An automorphism g maps the first best leaf onto a leaf
    with the same encoding, which such a product maps onto an explored best
    leaf, recorded as the image of the first best leaf.  An automorphism is
    fixed by the image of one leaf, so g is a product of recorded generators.
    """
    if n > MAX_N:
        raise DomainError(f"canonical labeling supports n <= {MAX_N}, got {n}")
    if n == 0:
        return 0, [], []
    if root is None:
        root = root_partition(rows, n)
    generators: list[list[int]] = []
    twin_class = list(range(n))
    for cell in root:
        if len(cell) == 1:
            continue
        firsts: dict[int, int] = {}  # neighborhood -> first vertex having it
        for v in cell:
            nbhd, closed = rows[v], rows[v] | 1 << v
            twin = firsts.get(nbhd, firsts.get(closed, v))
            if twin == v:
                firsts[nbhd] = firsts[closed] = v
            else:
                twin_class[v] = twin
                swap = list(range(n))
                swap[twin], swap[v] = v, twin
                generators.append(swap)
    best_enc = 1 << n * (n - 1) // 2  # above every encoding
    best_order: list[int] = list(range(n))

    def descend(cells: list[list[int]]) -> None:
        nonlocal best_enc, best_order
        if len(cells) == n:
            order = [c[0] for c in cells]
            enc = code_of(rows, order)
            if enc < best_enc:
                best_enc = enc
                best_order = order
            elif enc == best_enc:
                image = [0] * n
                for u, v in zip(best_order, order):
                    image[u] = v
                generators.append(image)
            return
        idx = next(i for i, c in enumerate(cells) if len(c) > 1)
        cell = cells[idx]
        branch: dict[int, int] = {}  # twin class -> its first vertex in the cell
        for v in cell:
            branch.setdefault(twin_class[v], v)
        for v in branch.values():
            rest = [w for w in cell if w != v]
            descend(_refine(rows, cells[:idx] + [[v], rest] + cells[idx + 1 :], [1 << v]))

    descend(root)
    return best_enc, best_order, generators


def orbit(mask: int, generators: list[list[int]]) -> set[int]:
    """The orbit of a vertex set, as a mask, under the group the generators
    generate."""
    found, todo = {mask}, [mask]
    while todo:
        m = todo.pop()
        for image in generators:
            out, bits = 0, m
            while bits:
                low = bits & -bits
                out |= 1 << image[low.bit_length() - 1]
                bits ^= low
            if out not in found:
                found.add(out)
                todo.append(out)
    return found

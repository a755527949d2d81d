"""Canonical labeling for small graphs (n <= 16).

Equitable refinement plus individualization backtracking over ordered
partitions; the canonical form is the minimum upper-triangle encoding over all
discrete partitions the search reaches.  Collapsing twin vertices (equal
neighborhoods outside the pair) keeps high-symmetry graphs such as empty
graphs, cliques, and unions of cliques from exploding the branch count.  The
search records automorphisms, and the labelling returns the vertex orbits
along with the form.

The entry points work on bare adjacency-row tuples.
"""

from __future__ import annotations

from .errors import DomainError

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


def _twins(rows: tuple[int, ...], u: int, w: int) -> bool:
    """u and w have the same neighbors outside {u, w}, so swapping them is an
    automorphism.  Being twins is an equivalence relation."""
    keep = ~(1 << u | 1 << w)
    return rows[u] & keep == rows[w] & keep


def _encode(rows: tuple[int, ...], order: list[int]) -> int:
    """Upper-triangle bits (column-major) of the relabeled graph as one int:
    column j, the neighbors of order[j] among order[:j], is j bits with
    order[0] on top."""
    enc = 0
    for j in range(1, len(order)):
        r = rows[order[j]]
        col = 0
        for i in range(j):
            col = col << 1 | (r >> order[i] & 1)
        enc = enc << j | col
    return enc


def root_partition(rows: tuple[int, ...], n: int) -> list[list[int]]:
    """The equitable partition the search starts from, the refinement of
    [all].  Its cells are unions of orbits, and the last cell holds only
    vertices of the largest degree.  Needs n >= 1."""
    return _refine(rows, [list(range(n))], [(1 << n) - 1])


def canonical_order_rows(
    rows: tuple[int, ...], n: int, root: list[list[int]], generators: list[list[int]]
) -> list[int]:
    """A relabeling (new index -> old vertex) realizing the canonical form,
    searched from ``root`` = root_partition(rows, n), for 1 <= n <= MAX_N.

    Every automorphism the search meets is appended to ``generators`` as a
    list (vertex -> image): each leaf whose encoding equals the best so far,
    mapped from the best leaf, and each twin swap the search skips.  Together
    they generate the automorphism group (oracle._classes gives the
    proof)."""
    best_enc = 1 << n * (n - 1) // 2  # above every encoding
    best_order: list[int] = list(range(n))

    def descend(cells: list[list[int]]) -> None:
        nonlocal best_enc, best_order
        if len(cells) == n:
            order = [c[0] for c in cells]
            enc = _encode(rows, order)
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
        reps: list[int] = []
        for v in cell:
            twin = next((r for r in reps if _twins(rows, r, v)), None)
            if twin is None:
                reps.append(v)
            else:
                swap = list(range(n))
                swap[twin], swap[v] = v, twin
                generators.append(swap)
        for v in reps:
            rest = [w for w in cell if w != v]
            descend(_refine(rows, cells[:idx] + [[v], rest] + cells[idx + 1 :], [1 << v]))

    descend(root)
    return best_order


def _orbits(generators: list[list[int]], pos: list[int]) -> list[int]:
    """Orbits of the group the generators generate, by union-find: each
    vertex gets the largest ``pos`` in its orbit."""
    parent = list(range(len(pos)))

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    for image in generators:
        for u, v in enumerate(image):
            if u != v:
                a, b = find(u), find(v)
                if pos[a] > pos[b]:
                    a, b = b, a
                parent[a] = b  # a class's root is its member of largest pos
    return [pos[find(v)] for v in range(len(pos))]


def canonical_rows(
    rows: tuple[int, ...], n: int, root: list[list[int]] | None = None
) -> tuple[tuple[int, ...], list[int], list[list[int]]]:
    """Adjacency rows of the canonically labeled graph, its vertex orbits, and
    generators of its automorphism group in the input's labels (vertex ->
    image): orbits[v] is the largest canonical index in v's orbit, so
    orbits[v] == n - 1 iff v is in the orbit of the canonically last vertex.
    ``root`` may pass root_partition(rows, n) when the caller has it."""
    if n > MAX_N:
        raise DomainError(f"canonical labeling supports n <= {MAX_N}, got {n}")
    if n == 0:
        return (), [], []
    if root is None:
        root = root_partition(rows, n)
    generators: list[list[int]] = []
    order = canonical_order_rows(rows, n, root, generators)
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
    return tuple(out), _orbits(generators, pos), generators

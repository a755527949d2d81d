"""Simple undirected graphs on bitset adjacency rows, the clique-plus-star
construction, the upper-triangle code and graph6, and the girth of a part.

Rows are Python ints used as bitsets, so the same representation covers both
the small oracle graphs (n <= 16) and larger witness graphs.
"""

from __future__ import annotations

import binascii
import math
from collections.abc import Iterable, Iterator, Sequence

from .errors import DomainError


class Graph:
    """Loop-free undirected graph; adjacency as one int bitmask per vertex."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: list[int] | None = None):
        if n < 0:
            raise DomainError(f"vertex count must be >= 0, got {n}")
        self.n = n
        if rows is None:
            self.rows = [0] * n
        else:
            if len(rows) != n:
                raise DomainError(f"expected {n} adjacency rows, got {len(rows)}")
            self.rows = list(rows)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise DomainError(f"vertex {v} out of range [0, {self.n})")

    def add_edge(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise DomainError(f"self-loop at vertex {u} rejected")
        self.rows[u] |= 1 << v
        self.rows[v] |= 1 << u

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            r = self.rows[u] >> (u + 1) << (u + 1)
            while r:
                b = r & -r
                yield (u, b.bit_length() - 1)
                r ^= b

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, [(full ^ (1 << v) ^ self.rows[v]) & full for v in range(self.n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.edge_count()})"


def clique_plus_star(n: int, k: int, extra: int) -> Graph | None:
    """K_k on vertices 0..k-1 plus a star centred at k with leaves k+1, ...,
    k+extra, built as rows; None when the star does not fit, extra >
    max(n - k - 1, 0): a spanning star on the other n - k vertices has
    n - k - 1 edges, and with k = n there is no centre."""
    if extra > max(n - k - 1, 0):
        return None
    clique, leaves = (1 << k) - 1, ((1 << extra) - 1) << k + 1
    return Graph(n, [clique ^ 1 << v if v < k else leaves if v == k
                     else 1 << k if v <= k + extra else 0 for v in range(n)])


GRAPH6_MAX_N = 258047  # largest order the 4-byte header can state

# graph6 body bytes 63-126 are base64 sextets with the alphabet shifted to "?"
_G6 = bytes(range(63, 127))
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_B64, _FROM_B64 = bytes.maketrans(_G6, _B64), bytes.maketrans(_B64, _G6)
_NOT_G6 = str.maketrans("", "", _G6.decode())  # deletes every graph6 body byte


def code_of(rows: Sequence[int], order: Sequence[int]) -> int:
    """Upper-triangle bits (column-major) of the relabeled graph as one int:
    column j, the neighbors of order[j] among order[:j], is j bits with
    order[0] on top.  These are graph6's body bits, so for one n codes sort
    as graph6 strings do."""
    enc = 0
    for j in range(1, len(order)):
        r = rows[order[j]]
        col = 0
        for i in range(j):
            col = col << 1 | (r >> order[i] & 1)
        enc = enc << j | col
    return enc


def rows_of(code: int, n: int) -> tuple[int, ...]:
    """The adjacency rows that code_of maps to ``code`` under the identity
    order, in time linear in binom2(n).  Each column is one slice of the
    bit string, padded to n characters, so character w*n + v of ``grid``
    is the pair v < w: row v is column v or'ed with the stride-n slice from
    v."""
    bits = format(code, "b").zfill(n * (n - 1) // 2)
    grid = "".join(bits[j * (j - 1) // 2 : j * (j + 1) // 2].ljust(n, "0") for j in range(n))
    return tuple(int(grid[v * n : v * n + n][::-1], 2) | int(grid[v::n][::-1], 2)
                 for v in range(n))


def to_graph6(g: Graph) -> str:
    """Header-less graph6 string; bit-exact for 0 <= n <= 258047.

    The order is one byte chr(n + 63) up to n = 62, and above that "~"
    followed by n in three big-endian 6-bit bytes (n = 63 gives "~??~").
    """
    n = g.n
    if n > GRAPH6_MAX_N:
        raise DomainError(f"graph6 support here covers n <= {GRAPH6_MAX_N}, got n={n}")
    bits = n * (n - 1) // 2
    sextets = (bits + 5) // 6
    size = -(-sextets // 4) * 3  # whole base64 groups: zero bits follow the code
    data = (code_of(g.rows, range(n)) << 8 * size - bits).to_bytes(size, "big")
    body = binascii.b2a_base64(data, newline=False)[:sextets].translate(_FROM_B64).decode()
    if n <= 62:
        return chr(n + 63) + body
    return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0)) + body


def _graph6_word(ch: str) -> int:
    word = ord(ch) - 63
    if not 0 <= word < 64:
        raise DomainError(f"invalid graph6 byte {ch!r}")
    return word


def from_graph6(text: str) -> Graph:
    """Decode a header-less graph6 string with n <= 258047."""
    s = text.strip()
    if not s:
        raise DomainError("empty graph6 string")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise DomainError(
                f"unsupported graph6 order header {s[:4]!r} (n <= {GRAPH6_MAX_N} only)"
            )
        n = 0
        for ch in s[1:4]:
            n = n << 6 | _graph6_word(ch)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        if not 0 <= n <= 62:
            raise DomainError(f"unsupported graph6 order byte {s[0]!r}")
        body = s[1:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise DomainError(f"graph6 body length {len(body)}, expected {need} for n={n}")
    bad = body.translate(_NOT_G6)
    if bad:
        _graph6_word(bad[0])  # raises on the first byte outside "?".."~"
    data = binascii.a2b_base64(body.encode().translate(_TO_B64) + b"A" * (-need % 4))
    value = int.from_bytes(data, "big") >> 8 * len(data) - 6 * need
    padding = 6 * need - n * (n - 1) // 2
    if value & (1 << padding) - 1:
        raise DomainError("nonzero padding bits in graph6 string")
    return Graph(n, rows_of(value >> padding, n))


def girth(g: Graph, part: Iterable[int] | None = None) -> int | float:
    """Length of a shortest cycle in the subgraph induced on `part` (all of
    g by default), or math.inf for forests.

    BFS from every vertex of the part, on rows masked to it; a non-tree edge
    (u, w) seen from root r closes a cycle of length dist[u] + dist[w] + 1,
    and the minimum over all roots and non-tree edges is the girth.
    """
    n = g.n
    sources = range(n) if part is None else sorted(part)
    keep = sum(1 << v for v in sources)
    rows = [r & keep for r in g.rows]
    best: int | float = math.inf
    for src in sources:
        dist = [-1] * n
        parent = [-1] * n
        dist[src] = 0
        frontier = [src]
        depth = 0
        while frontier:
            if 2 * depth + 1 >= best:
                break  # any cycle detected from here on is no shorter
            nxt = []
            for u in frontier:
                r = rows[u]
                pu = parent[u]
                du = dist[u]
                while r:
                    b = r & -r
                    w = b.bit_length() - 1
                    r ^= b
                    if dist[w] < 0:
                        dist[w] = du + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != pu:
                        c = du + dist[w] + 1
                        if c < best:
                            best = c
            frontier = nxt
            depth += 1
    return best

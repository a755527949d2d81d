"""Test-only helpers: independent reference implementations, Graph-level
canonical forms, and small queries over scanner records that the package
itself does not need."""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from avoidpairs.canon import canonical_rows
from avoidpairs.criterion import (
    AvoidabilityCert,
    PairMF,
    _in_envelope,
    avoidability_certificate,
    lr_floors,
    radicands,
)
from avoidpairs.errors import DomainError, GuardError
from avoidpairs.exactarith import binom2
from avoidpairs.graphs import GRAPH6_MAX_N, Graph, rows_of
from avoidpairs.oracle import _classes, arrows


def to_graph6_per_bit(g: Graph) -> str:
    """Reference for graphs.to_graph6: the upper triangle, column by column,
    as a list of bits, padded to a multiple of 6 and packed one byte per
    six bits."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise DomainError(f"graph6 support here covers n <= {GRAPH6_MAX_N}, got n={n}")
    bits = []
    for j in range(1, n):
        row = g.rows[j]
        for i in range(j):
            bits.append(row >> i & 1)
    while len(bits) % 6:
        bits.append(0)
    if n <= 62:
        chars = [chr(n + 63)]
    else:
        chars = ["~"] + [chr((n >> shift & 63) + 63) for shift in (12, 6, 0)]
    for k in range(0, len(bits), 6):
        word = 0
        for b in bits[k : k + 6]:
            word = word << 1 | b
        chars.append(chr(word + 63))
    return "".join(chars)


def _graph6_word(ch: str) -> int:
    word = ord(ch) - 63
    if not 0 <= word < 64:
        raise DomainError(f"invalid graph6 byte {ch!r}")
    return word


def from_graph6_per_bit(text: str) -> Graph:
    """Reference for graphs.from_graph6, with its refusals in the same
    order: every body byte unpacked into a list of bits, one edge added per
    set bit, then the padding bits checked."""
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
    bits = []
    for ch in body:
        word = _graph6_word(ch)
        bits.extend(word >> k & 1 for k in range(5, -1, -1))
    g = Graph(n)
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                g.add_edge(i, j)
            idx += 1
    if any(bits[idx:]):
        raise DomainError("nonzero padding bits in graph6 string")
    return g


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Reference for graphs.girth's part: the subgraph of g induced on
    `vertices`, relabelled 0.. in sorted order."""
    order = sorted(vertices)
    index = {v: i for i, v in enumerate(order)}
    mask = sum(1 << v for v in order)
    rows = []
    for v in order:
        r = g.rows[v] & mask
        row = 0
        while r:
            b = r & -r
            row |= 1 << index[b.bit_length() - 1]
            r ^= b
        rows.append(row)
    return Graph(len(order), rows)


def canonical_graph(g: Graph) -> Graph:
    return Graph(g.n, rows_of(canonical_rows(tuple(g.rows), g.n)[0], g.n))


def canonical_key(g: Graph) -> tuple[int, int]:
    """Hashable isomorphism invariant: (n, canonical code)."""
    return (g.n, canonical_rows(tuple(g.rows), g.n)[0])


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


def smallest_clique_size_bisection(m: int, f: int) -> int | None:
    """Smallest clique size x such that (m, f) is a clique K_x plus a forest on
    the remaining m - x vertices, or None when no x in [0, m] works.

    Independent reference for xcheck_lr_equivalence; clique_forest_realizable
    decides from the floors instead.  The exact feasibility condition at x is
    binom2(x) <= f and f - binom2(x) <= max(0, m - x - 1).  x = 0 covers all
    f <= m - 1; for f >= m the forest-budget excess 2f - x(x-1) - 2(m - x - 1)
    is strictly decreasing on [2, m-1], so the smallest feasible x there is
    found by bisection; x = m needs f = binom2(m) exactly.
    """
    if f <= m - 1:
        return 0
    # f >= m: x = 0, 1 overflow the forest budget and add no clique edges.
    if f > binom2(m - 1):
        # excess still positive at x = m-1, so only the full clique remains
        return m if f == binom2(m) else None
    lo, hi = 2, m - 1  # excess > 0 at x=2 (since f >= m), <= 0 at x=m-1
    while lo < hi:
        mid = (lo + hi) >> 1
        if 2 * f - mid * (mid - 1) <= 2 * (m - mid - 1):
            hi = mid
        else:
            lo = mid + 1
    return lo if lo * (lo - 1) // 2 <= f else None


def first_valid_m_walk(q: int) -> int:
    """Smallest m whose whole stride-4 tail keeps the radicand non-negative,
    by stepping m up by one: the radicand is increasing in 4m, so one check
    suffices."""
    m = 1
    while radicands(4 * m, q)[0] < 0:
        m += 1
    return m


def xcheck_lr_equivalence(m_lo: int, m_hi: int) -> dict:
    """Exhaustive bisection-vs-floors cross-check: for every m = 0, 1 (mod 4)
    in range and every integer q with |q| <= m inside the envelope, check the
    bisection reference against the floors: impossible exactly when L > R, and
    otherwise smallest clique size L.  Returns {"pairs_checked", "mismatches"}."""
    sq = math.isqrt
    checked = 0
    mismatches: list[dict] = []
    for m in range(m_lo, m_hi + 1):
        if m % 4 in (2, 3) or m < 5:
            continue
        half = m * (m - 1) // 4
        qmax = min(m, (m - 5) ** 2 // 4)
        base_y = 2 * m * m - 10 * m + 9
        base_z = 2 * m * m - 2 * m + 1
        for q in range(-qmax, qmax + 1):
            f = half - q
            x = smallest_clique_size_bisection(m, f)
            lval = (5 + sq(base_y - 8 * q)) >> 1
            rval = (1 + sq(base_z - 8 * q)) >> 1
            checked += 1
            if x != (None if lval > rval else lval):
                mismatches.append({"m": m, "q": q, "f": f, "L": lval, "R": rval,
                                   "search_x": x})
    return {"pairs_checked": checked, "mismatches": mismatches}


def interval_bounds_fraction(m: int) -> tuple[int, int]:
    """Reference for criterion._interval_bounds in exact rationals: the
    integers strictly within 0.175*m of m(m-1)/4, clipped to [0, binom2(m)]."""
    center = Fraction(binom2(m), 2)
    width = Fraction(7 * m, 40)  # 0.175 * m, exactly
    f_lo = math.floor(center - width) + 1
    f_hi = math.ceil(center + width) - 1
    return max(f_lo, 0), min(f_hi, binom2(m))


def interval_result(f: int, outcome) -> dict:
    """One scan-interval result as a dict: a certificate's four floors, or
    the realizable orientation and its decomposition."""
    if isinstance(outcome, AvoidabilityCert):
        return {
            "f": f,
            "certified": True,
            "L_direct": outcome.cert_direct.L,
            "R_direct": outcome.cert_direct.R,
            "L_complement": outcome.cert_complement.L,
            "R_complement": outcome.cert_complement.R,
        }
    dec = outcome.decomposition
    return {
        "f": f,
        "certified": False,
        "direction": outcome.direction,
        "x": dec.x,
        "forest_vertices": dec.forest_vertices,
        "forest_edges": dec.forest_edges,
    }


def interval_all_pass(m: int) -> bool:
    """Reference for scan_interval's all_pass: every f in the interval gets
    a certificate, both orientations decided; False for the empty
    interval."""
    f_lo, f_hi = interval_bounds_fraction(m)
    return f_lo <= f_hi and all(
        isinstance(avoidability_certificate(PairMF(m, f)), AvoidabilityCert)
        for f in range(f_lo, f_hi + 1))


def scan_interval_record(m: int) -> dict:
    """Reference for criterion.scan_interval and the scan-interval JSON
    line: the whole record as one dict, with every result built before it
    is returned, the bounds in exact rationals, and all_pass read off the
    results."""
    f_lo, f_hi = interval_bounds_fraction(m)
    if f_lo > f_hi:
        return {"m": m, "empty": True, "f_lo": None, "f_hi": None,
                "all_pass": False, "results": []}
    results = [interval_result(f, avoidability_certificate(PairMF(m, f)))
               for f in range(f_lo, f_hi + 1)]
    return {
        "m": m,
        "empty": False,
        "f_lo": f_lo,
        "f_hi": f_hi,
        "all_pass": all(rec["certified"] for rec in results),
        "results": results,
    }


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


def offset_disjunction_records(m_lo: int, m_hi: int) -> list[dict]:
    """Reference for criterion.scan_offset_disjunction: its records as dicts
    keyed by field name, from lr_floors on radicands(m, 0) and the
    envelope predicate, for each m = 0, 1 (mod 4) in range."""
    records = []
    for m in range(m_lo, m_hi + 1):
        if m % 4 not in (0, 1) or m < 5:
            continue
        dy, dz = radicands(m, 0)
        l0, r0 = lr_floors(dy, dz)
        if _in_envelope(m, 6 * m):
            # q = +/-6m moves both radicands by -/+48m
            l6, r6 = lr_floors(dy - 48 * m, dz - 48 * m)
            lm6, rm6 = lr_floors(dy + 48 * m, dz + 48 * m)
            offset = l6 > r6 and lm6 > rm6
        else:
            l6 = r6 = lm6 = rm6 = None
            offset = None
        records.append({
            "m": m,
            "which": "center" if l0 > r0 else ("offset6m" if offset else "none"),
            "L0": l0,
            "R0": r0,
            "L6m": l6,
            "R6m": r6,
            "Lneg6m": lm6,
            "Rneg6m": rm6,
        })
    return records


def first_persistent_m(rows: list[tuple]) -> int | None:
    """Smallest scanned m from which every later scan_offset_disjunction row
    has a holding branch.

    Reports an observation over the scanned range only; no claim is made that
    the boundary is tight beyond it.
    """
    last_bad = None
    for *_, m, which in rows:
        if which == "none":
            last_bad = m
    if last_bad is None:
        return rows[0][6] if rows else None
    later = [m for *_, m, _ in rows if m > last_bad]
    return later[0] if later else None


@functools.cache
def sorted_classes(n: int, e_lo: int, e_hi: int) -> tuple[int, ...]:
    """The codes of oracle._classes(n, e_lo, e_hi) in graph6 order, built
    once per test session."""
    return tuple(sorted(_classes(n, e_lo, e_hi)))


@functools.cache
def failing_classes(n: int, pair: PairMF) -> tuple[int, ...]:
    """Reference for oracle._classes with a pair: the codes of the unpruned
    level on n vertices in graph6 order, each class decided by
    oracle.arrows, keeping those that do not arrow the pair."""
    return tuple(code for code in sorted_classes(n, 0, binom2(n))
                 if not arrows(Graph(n, rows_of(code, n)), pair))


def least_failures_reference(n: int, pair: PairMF) -> dict[int, Graph]:
    """Reference for oracle._least_failures over the full level: the first
    failing class in graph6 order at each e, by increasing e."""
    least: dict[int, Graph] = {}
    for code in failing_classes(n, pair):
        least.setdefault(code.bit_count(), Graph(n, rows_of(code, n)))
    return dict(sorted(least.items()))


def least_extension_reference(n: int, pair: PairMF, e_lo: int = 0,
                              e_hi: int | None = None) -> dict[int, Graph]:
    """Reference for oracle._least_failures: for each e in [e_lo, e_hi]
    (every e by default) with a failure, the least code c << (n - 1) | col
    over the failing classes c on n - 1 vertices and every column col whose
    child does not arrow the pair by oracle.arrows, by increasing e.  Parents
    and columns are taken in increasing order, so the first failure at an e
    is its least.  The one graph on no vertices fails every pair."""
    k = n - 1
    e_hi = binom2(n) if e_hi is None else e_hi
    least: dict[int, Graph] = {}
    for code in failing_classes(k, pair) if k else (0,):
        for col in range(1 << k):
            e = code.bit_count() + col.bit_count()
            if e_lo <= e <= e_hi and e not in least:
                child = Graph(n, rows_of(code << k | col, n))
                if not arrows(child, pair):
                    least[e] = child
    return dict(sorted(least.items()))


def class_counts(n: int) -> dict[int, int]:
    """Isomorphism-class counts on n vertices keyed by edge count, from the
    full level on n vertices."""
    counts = Counter(code.bit_count() for code in sorted_classes(n, 0, binom2(n)))
    return dict(sorted(counts.items()))


def labeled_class_counts(n: int) -> dict[int, int]:
    """Independent recount: enumerate all labeled graphs on n vertices and
    deduplicate by canonical form.  Exponential; guarded to n <= 6."""
    if n > 6:
        raise GuardError(f"labeled recount is 2^binom2(n) work; n <= 6 only, got {n}")
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    seen: dict[int, set[int]] = {}
    for word in range(1 << len(pairs)):
        rows = [0] * n
        for idx, (i, j) in enumerate(pairs):
            if word >> idx & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        e = sum(r.bit_count() for r in rows) // 2
        seen.setdefault(e, set()).add(canonical_rows(tuple(rows), n)[0])
    return {e: len(forms) for e, forms in sorted(seen.items())}


def classes_by_set_dedup(n: int, e_lo: int, e_hi: int) -> tuple[int, ...]:
    """Reference for oracle._classes: extend every class on k vertices by
    every neighbor mask, label every child canonically and deduplicate in one
    set per level.  Children that can no longer reach the edge window are
    dropped, as there.  Canonical codes in graph6 order."""
    total = binom2(n)
    level = {0}  # the one graph on one vertex
    for k in range(1, n):
        cap_after = total - binom2(k + 1)
        nxt = set()
        for code in level:
            parent = rows_of(code, k)
            e_parent = code.bit_count()
            for mask in range(1 << k):
                e_child = e_parent + mask.bit_count()
                if e_child > e_hi or e_child + cap_after < e_lo:
                    continue
                child = tuple(r | (mask >> i & 1) << k for i, r in enumerate(parent)) + (mask,)
                nxt.add(canonical_rows(child, k + 1)[0])
        level = nxt
    return tuple(sorted(level))


class Poly:
    """A polynomial in x and y with integer coefficients, {(i, j): c} for
    the terms c * x^i * y^j; enough arithmetic to state identities."""

    def __init__(self, terms: dict):
        self.terms = {key: c for key, c in terms.items() if c}

    @staticmethod
    def of(value) -> "Poly":
        return value if isinstance(value, Poly) else Poly({(0, 0): value})

    def __add__(self, other) -> "Poly":
        terms = dict(self.terms)
        for key, c in Poly.of(other).terms.items():
            terms[key] = terms.get(key, 0) + c
        return Poly(terms)

    def __mul__(self, other) -> "Poly":
        terms: dict = {}
        for (i, j), c in self.terms.items():
            for (k, l), d in Poly.of(other).terms.items():
                terms[i + k, j + l] = terms.get((i + k, j + l), 0) + c * d
        return Poly(terms)

    def __neg__(self) -> "Poly":
        return self * -1

    def __sub__(self, other) -> "Poly":
        return self + -Poly.of(other)

    def __pow__(self, k: int) -> "Poly":
        return functools.reduce(Poly.__mul__, [self] * k, Poly.of(1))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return self.terms == Poly.of(other).terms

    def __call__(self, x: int, y: int) -> int:
        return sum(c * x**i * y**j for (i, j), c in self.terms.items())


X, Y = Poly({(1, 0): 1}), Poly({(0, 1): 1})


def mod_pell(p: Poly) -> Poly:
    """p modulo x^2 - 2y^2 - 7: every x^2 becomes 2y^2 + 7, which leaves
    each term of degree at most 1 in x.  Over Z[y], 1 and x are a basis of
    Z[x, y] / (x^2 - 2y^2 - 7), so p is 0 under x^2 - 2y^2 = 7 exactly when
    mod_pell(p) == 0."""
    return sum((c * X ** (i % 2) * Y**j * (2 * Y**2 + 7) ** (i // 2)
                for (i, j), c in p.terms.items()), Poly({}))

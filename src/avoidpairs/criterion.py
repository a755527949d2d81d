"""Exact avoidability criterion for order-size pairs.

Decides whether (m, f) splits as a vertex-disjoint clique plus forest, attaches
the integer floor bounds L and R that witness impossibility, certifies pairs
whose both orientations are impossible, and scans m ranges for such pairs.

All verdicts come from integer arithmetic; the only approximate quantities are
the fixed-point diagnostics (fractional part of the half-surd and the interval
endpoint), which never influence a verdict.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator

from .errors import DomainError, GuardError, ScanAssertionError
from .exactarith import DEFAULT_FRACBITS, FixedPointFrac, binom2, frac_sqrt_half, surd_floor
from .records import Record

TYPE_CHECKING = False  # True to type checkers only; executing typing costs start-up
if TYPE_CHECKING:
    from fractions import Fraction


class PairMF(Record):
    """An order-size pair: m vertices, f edges, 0 <= f <= m*(m-1)/2."""

    m: int
    f: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError(f"pair order must be >= 1, got m={self.m}")
        if not 0 <= self.f <= binom2(self.m):
            raise DomainError(
                f"pair size must satisfy 0 <= f <= {binom2(self.m)}, got f={self.f}"
            )

    def complement(self) -> "PairMF":
        return PairMF(self.m, binom2(self.m) - self.f)


class Realizable(Record):
    """Decomposition witness: clique of size x plus a forest on the rest."""

    x: int
    forest_vertices: int
    forest_edges: int


class Impossible(Record):
    """Proof of impossibility: the lower clique bound L exceeds the upper R."""

    L: int
    R: int


CliqueForestCert = Realizable | Impossible


class AvoidabilityCert(Record):
    """Certificate that neither the pair nor its complement splits as clique+forest."""

    pair: PairMF
    cert_direct: Impossible
    cert_complement: Impossible


class CertRejection(Record):
    """Names the orientation that is realizable, with its decomposition."""

    pair: PairMF
    direction: str  # "direct" | "complement"
    rejected_pair: PairMF
    decomposition: Realizable


class CriterionEval(Record):
    """Exact L/R floors for (m, q) plus fixed-point diagnostics.

    Dy and Dz are the radicands 2m^2-10m-8q+9 and 2m^2-2m-8q+1; L and R are the
    exact floors of 5/2 + sqrt(Dy)/2 and 1/2 + sqrt(Dz)/2.  frac_y is the
    fractional part of sqrt(Dy)/2 and d_approx the interval endpoint
    3/2 - (sqrt(Dz)-sqrt(Dy))/2, both at fracbits precision (diagnostics only;
    d_approx can be negative for small m).
    """

    m: int
    q: int
    Dy: int
    Dz: int
    L: int
    R: int
    frac_y: FixedPointFrac
    d_approx: FixedPointFrac


def _in_envelope(m: int, q: int) -> bool:
    # m >= 5 + 2*sqrt(|q|), checked as (m-5)^2 >= 4|q| with m >= 5
    return m >= 5 and (m - 5) ** 2 >= 4 * abs(q)


def _refuse_outside_envelope(m: int, q: int) -> None:
    if not _in_envelope(m, q):
        if m < 5:
            raise DomainError(f"criterion needs m >= 5, got m={m}")
        raise DomainError(
            f"criterion needs (m-5)^2 >= 4*|q| (i.e. m >= 5 + 2*sqrt(|q|)); "
            f"got m={m}, q={q}"
        )


def radicands(m: int, q: int) -> tuple[int, int]:
    """(Dy, Dz) = (2m^2-10m-8q+9, 2m^2-2m-8q+1) for the (m, q)
    parametrization, f = m(m-1)/4 - q, unchecked: callers apply their own
    domain (lr_values and eval_criterion refuse outside the envelope)."""
    dy = 2 * m * m - 10 * m - 8 * q + 9
    return dy, dy + 8 * (m - 1)


def lr_floors(dy: int, dz: int) -> tuple[int, int]:
    """(L, R) = (floor((5 + sqrt(Dy))/2), floor((1 + sqrt(Dz))/2)), exactly."""
    return surd_floor(5, dy), surd_floor(1, dz)


def lr_values(m: int, q: int) -> tuple[int, int]:
    """Exact (L, R) for the (m, q) parametrization, f = m(m-1)/4 - q."""
    _refuse_outside_envelope(m, q)
    return lr_floors(*radicands(m, q))


def lr_from_f(m: int, f: int) -> tuple[int, int]:
    """Exact (L, R) computed from the pair directly: Dy = 8(f-m)+9, Dz = 8f+1.

    Algebraically identical to lr_values at q = m(m-1)/4 - f, but defined for
    every f >= m - 1 even when that q is not an integer.  L > R is equivalent
    to clique+forest impossibility on m <= f < binom2(m) (see
    clique_forest_realizable).  Outside that range every pair is realizable,
    although (3, 2) and each (m, binom2(m)) have L > R.
    """
    dy = 8 * (f - m) + 9
    if dy < 0:
        raise DomainError(f"L is undefined for f < m - 1 (f={f}, m={m})")
    return lr_floors(dy, 8 * f + 1)


def eval_criterion(m: int, q: int, fracbits: int = DEFAULT_FRACBITS) -> CriterionEval:
    """Evaluate the exact floors and diagnostics for (m, q)."""
    _refuse_outside_envelope(m, q)
    dy, dz = radicands(m, q)
    frac_y = frac_sqrt_half(dy, fracbits)
    # d = 3/2 - (sqrt(Dz) - sqrt(Dy))/2 at fracbits precision
    a = math.isqrt(dz << (2 * fracbits))
    b = math.isqrt(dy << (2 * fracbits))
    d_num = (3 << (fracbits - 1)) - ((a - b) >> 1)
    L, R = lr_floors(dy, dz)
    return CriterionEval(m=m, q=q, Dy=dy, Dz=dz, L=L, R=R, frac_y=frac_y,
                         d_approx=FixedPointFrac(d_num, fracbits))


def clique_forest_realizable(pair: PairMF) -> CliqueForestCert:
    """Decide clique+forest realizability of the pair from the floors L and R.

    Returns Realizable with the smallest feasible clique size x, or Impossible
    carrying the (L, R) floor gap.  x = 0 works exactly when f <= m - 1, and
    x = m exactly when f = binom2(m).  Both are decided first because the
    floors do not apply there: L is undefined for f < m - 1, and L > R at
    (3, 2) and at every f = binom2(m).

    Why L is the answer on the rest, m <= f < binom2(m): there x = 0, 1 and m
    fail, and x in [2, m-1] is feasible iff binom2(x) <= f and
    f - binom2(x) <= m - x - 1.  The first is (2x-1)^2 <= 8f + 1, i.e. x <= R.
    The second rearranges to (2x-3)^2 >= Dy + 8 with Dy = 8(f-m) + 9.  Dy is
    1 mod 8, and so is every odd square, so no odd square lies strictly
    between Dy and Dy + 8: the second condition is (2x-3)^2 > Dy, i.e.
    x > (3 + sqrt(Dy))/2, whose least integer solution is
    floor((5 + sqrt(Dy))/2) = L.  The feasible x are therefore L..R, and
    R < m because binom2(m) > f, so L <= R puts L inside [2, m-1].
    """
    m, f = pair.m, pair.f
    if f <= m - 1:
        x = 0
    elif f == binom2(m):
        x = m
    else:
        L, R = lr_from_f(m, f)
        if L > R:
            return Impossible(L, R)
        x = L
    return Realizable(x, m - x, f - binom2(x))


def avoidability_certificate(pair: PairMF) -> AvoidabilityCert | CertRejection:
    """Certificate when both the pair and its complement are impossible;
    otherwise a rejection naming the realizable orientation."""
    direct = clique_forest_realizable(pair)
    if isinstance(direct, Realizable):
        return CertRejection(pair, "direct", pair, direct)
    comp_pair = pair.complement()
    comp = clique_forest_realizable(comp_pair)
    if isinstance(comp, Realizable):
        return CertRejection(pair, "complement", comp_pair, comp)
    return AvoidabilityCert(pair, direct, comp)


# ---------------------------------------------------------------------------
# q(m) specifications for range scans


class AffineQ(Record):
    """q(m) = floor(alpha*m + beta) with rational alpha, beta."""

    alpha: Fraction
    beta: Fraction

    def __call__(self, m: int) -> int:
        return math.floor(self.alpha * m + self.beta)


# ---------------------------------------------------------------------------
# Scanners.  Each is a generator in m order, so a caller can write each record
# as soon as it is made: scan_offset_disjunction yields plain tuples, the
# others plain dicts (JSON-ready).  scan_interval, over f at one m, returns
# its header values with a generator of tuple rows.

# A scan_offset_disjunction row: its fields in order, which is also the sorted
# key order of the JSON line written for it.
SCAN_T4_FIELDS = ("L0", "L6m", "Lneg6m", "R0", "R6m", "Rneg6m", "m", "which")

# The q = +/-6m pairs are inside the envelope, (m-5)^2 >= 24m with m >= 5,
# exactly from m = OFFSET_M on: m^2 - 34m + 25 >= 0 holds for integers
# m >= 5 iff m >= 17 + sqrt(264), and 16 < sqrt(264) < 17.
OFFSET_M = 34


def scan_offset_disjunction(m_lo: int, m_hi: int, assert_all: bool = False) -> Iterator[tuple]:
    """For each m = 0, 1 (mod 4) in range, report whether the center inequality
    L_0 > R_0 holds, or both offset inequalities at q = +/-6m hold, as the row
    (L0, L6m, Lneg6m, R0, R6m, Rneg6m, m, which) (see SCAN_T4_FIELDS).  Below
    OFFSET_M the four offset floors are None.

    The floors are lr_floors written out: at q = 0 the radicands are
    Dy = 2m^2 - 10m + 9 and Dz = Dy + 8(m-1), q = +/-6m moves both by -/+48m,
    and floor((c + sqrt(D))/2) = (c + isqrt(D)) // 2 (exactarith.surd_floor).

    In assertion mode every m must satisfy one of the two branches; once the
    range is exhausted, a violation raises ScanAssertionError listing the
    failing rows as dicts keyed by SCAN_T4_FIELDS (all rows, failing ones
    included, are yielded first).
    """
    isqrt = math.isqrt
    bad = []
    for m in range(max(m_lo, 5), m_hi + 1):
        if m & 3 > 1:
            continue
        dy = 2 * m * m - 10 * m + 9
        dz = dy + 8 * m - 8
        l0 = (5 + isqrt(dy)) // 2
        r0 = (1 + isqrt(dz)) // 2
        if m >= OFFSET_M:
            s = 48 * m
            l6 = (5 + isqrt(dy - s)) // 2
            r6 = (1 + isqrt(dz - s)) // 2
            lm6 = (5 + isqrt(dy + s)) // 2
            rm6 = (1 + isqrt(dz + s)) // 2
            offset = l6 > r6 and lm6 > rm6
        else:
            l6 = r6 = lm6 = rm6 = None
            offset = False
        row = (l0, l6, lm6, r0, r6, rm6, m,
               "center" if l0 > r0 else "offset6m" if offset else "none")
        if assert_all and row[7] == "none":
            bad.append(row)
        yield row
    if bad:
        raise ScanAssertionError(
            f"{len(bad)} m values satisfy neither branch (first: m={bad[0][6]})",
            [dict(zip(SCAN_T4_FIELDS, row)) for row in bad],
        )


def scan_affine_q(q_of_m: Callable[[int], int], m_lo: int, m_hi: int) -> Iterator[dict]:
    """Scan m in range for pairs (m, m(m-1)/4 - q(m)) whose both-sign floor
    inequalities hold; every "hit" admits an avoidability certificate.

    m = 2, 3 (mod 4) are recorded as skipped (the target size is then not an
    integer), as are m below the envelope for |q(m)|.
    """
    for m in range(m_lo, m_hi + 1):
        if m % 4 in (2, 3):
            yield {"m": m, "status": "skipped-nonintegral-f"}
            continue
        q = q_of_m(m)
        if not _in_envelope(m, q):
            yield {"m": m, "status": "skipped-envelope", "q": q}
            continue
        # the envelope is symmetric in q, so one check covers both signs
        lp, rp = lr_floors(*radicands(m, q))
        ln, rn = lr_floors(*radicands(m, -q))
        hit = lp > rp and ln > rn
        yield {
            "m": m,
            "status": "hit" if hit else "miss",
            "q": q,
            "f": binom2(m) // 2 - q,
            "L_pos": lp,
            "R_pos": rp,
            "L_neg": ln,
            "R_neg": rn,
        }


# A certificate outcome as a row (certified, fields): the fields are the
# values of CERT_FIELDS[certified], which is the sorted key order of its
# record without "certified".
CERT_FIELDS = {
    True: ("L_complement", "L_direct", "R_complement", "R_direct", "f"),
    False: ("direction", "f", "forest_edges", "forest_vertices", "x"),
}


def cert_row(f: int, outcome: AvoidabilityCert | CertRejection) -> tuple[bool, tuple]:
    if isinstance(outcome, AvoidabilityCert):
        return True, (outcome.cert_complement.L, outcome.cert_direct.L,
                      outcome.cert_complement.R, outcome.cert_direct.R, f)
    dec = outcome.decomposition
    return False, (outcome.direction, f, dec.forest_edges, dec.forest_vertices, dec.x)


def cert_record(f: int, outcome: AvoidabilityCert | CertRejection) -> dict:
    certified, fields = cert_row(f, outcome)
    return {"certified": certified, **dict(zip(CERT_FIELDS[certified], fields))}


# scan_interval refuses an interval of more rows (about 0.35*m rows, so m up
# to about 2.86 million is admitted; m = 10**6 takes about 5 s on the CLI)
INTERVAL_ROW_GUARD = 10**6


def _interval_bounds(m: int) -> tuple[int, int]:
    """The integers f in the open interval of half-width 0.175*m around
    m(m-1)/4, clipped to [0, binom2(m)], as (f_lo, f_hi); empty if f_lo > f_hi.

    floor(c - w) + 1 and ceil(c + w) - 1 for c = binom2(m)/2 and w = 7m/40,
    both taken over the denominator 40."""
    center, width = 20 * binom2(m), 7 * m
    return (max((center - width) // 40 + 1, 0),
            min(-((-center - width) // 40) - 1, binom2(m)))


def scan_interval(m: int) -> tuple[int | None, int | None, bool, Iterator[tuple]]:
    """Certify every integer f in the open interval of half-width 0.175*m
    around m(m-1)/4, as (f_lo, f_hi, all_pass, rows): rows yields
    cert_row(f, avoidability_certificate((m, f))) for f = f_lo..f_hi, made
    one at a time as they are drawn.

    all_pass, whether every f is certified, is decided before any row, by
    the direct orientations alone.  That suffices because the interval is
    closed under f -> binom2(m) - f: the open interval is symmetric about
    binom2(m)/2, and so is its clipping to [0, binom2(m)].  The complement
    orientation of each f is then the direct orientation of another f in
    the interval, and every f is certified iff every f is Impossible
    directly.

    That takes one decision.  f lies in block R = surd_floor(1, 8f + 1), the
    largest R with binom2(R) <= f (so R <= m).  K_x plus a forest on the
    other m - x vertices has f edges iff binom2(x) <= f <= binom2(x) + m - x - 1
    or f = binom2(x) with x = m, and in block R the lower bound holds
    exactly for x <= R.  So the realizable f of a block are a prefix of it,
    which holds binom2(R) (K_R plus isolated vertices).  If f_lo and f_hi
    lie in different blocks, the first size of f_hi's block is realizable;
    else every f is Impossible iff f_lo is.

    Any m >= 1 is accepted: for m = 2, 3 (mod 4) the midpoint is half-integral
    and the certificates come from clique_forest_realizable alone.  The
    interval can then be empty (m = 2), reported as f_lo = f_hi = None,
    all_pass False and no rows.  More than INTERVAL_ROW_GUARD rows raise
    GuardError before any work.
    """
    if m < 1:
        raise DomainError(f"scan_interval needs m >= 1, got {m}")
    f_lo, f_hi = _interval_bounds(m)
    if f_hi - f_lo + 1 > INTERVAL_ROW_GUARD:
        raise GuardError(f"scan_interval guard: {f_hi - f_lo + 1} rows at m={m} "
                         f"exceed {INTERVAL_ROW_GUARD}")
    if f_lo > f_hi:
        return None, None, False, iter(())
    all_pass = (surd_floor(1, 8 * f_lo + 1) == surd_floor(1, 8 * f_hi + 1)
                and isinstance(clique_forest_realizable(PairMF(m, f_lo)), Impossible))
    rows = (cert_row(f, avoidability_certificate(PairMF(m, f)))
            for f in range(f_lo, f_hi + 1))
    return f_lo, f_hi, all_pass, rows


def _realizability_record(pair: PairMF) -> dict:
    cert = clique_forest_realizable(pair)
    if isinstance(cert, Realizable):
        return {"f": pair.f, "realizable": True, "x": cert.x,
                "forest_edges": cert.forest_edges}
    return {"f": pair.f, "realizable": False, "L": cert.L, "R": cert.R}


def scan_mod23(m_lo: int, m_hi: int) -> Iterator[dict]:
    """Exploration-only analogue of the mod-4 = 0, 1 scan for m = 2, 3 (mod 4),
    using f = floor(m(m-1)/4) and its complement, decided by the floors.

    No assertion mode: correctness of a persistent pattern here is not claimed.
    """
    for m in range(m_lo, m_hi + 1):
        if m % 4 not in (2, 3) or m < 2:
            continue
        total = binom2(m)
        f0 = total // 2  # total is odd here, so the complement size is f0 + 1
        rec = {"m": m}
        for name, f in (("center", f0), ("offset", f0 - 6 * m)):
            both = None
            if 0 <= f <= total:
                both = [_realizability_record(PairMF(m, f)),
                        _realizability_record(PairMF(m, total - f))]
            rec[f"f_{name}"] = f if both else None
            rec[name] = both
            rec[f"{name}_avoidable"] = not any(r["realizable"] for r in both) if both else None
        yield rec

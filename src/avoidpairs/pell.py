"""Integer solutions of x^2 - 2*y^2 = 7 under a fixed 2x2 recursion, and the
derived order set M = {(x_s + 5)/2 : s >= 2} = {40, 221, 1276, ...} whose
members admit exact avoidability certificates at the half edge count.

M starts at s = 2 because the paper defines it so.  The half-size
certificate holds at s = 1 too: (9, 18) is certified, with L = 7 > R = 6 in
both orientations.  It fails at s = 0, where m = 4 and (4, 3) is a forest.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

from .errors import DomainError, GuardError
from .records import Record

# first_states refuses more states: a listing of them grows as the square of
# the count (1.3 MB of pell --count output at 1,000 states, 4.9 MB at 2,000)
COUNT_GUARD = 2000


class PellState(Record):
    """One step of the recursion x' = 3x + 4y, y' = 2x + 3y from (3, 1)."""

    s: int
    x: int
    y: int

    @property
    def m(self) -> int:
        return (self.x + 5) // 2


def pell_initial() -> PellState:
    """The seed state (s, x, y) = (0, 3, 1); its m value is 4."""
    return PellState(0, 3, 1)


def pell_next(state: PellState) -> PellState:
    """Successor state; preserves x^2 - 2*y^2 = 7."""
    return PellState(state.s + 1, 3 * state.x + 4 * state.y, 2 * state.x + 3 * state.y)


def pell_states() -> Iterator[PellState]:
    """Raw infinite stream of states starting at s = 0 (m values 4, 9, 40, ...)."""
    state = pell_initial()
    while True:
        yield state
        state = pell_next(state)


def m_states() -> Iterator[PellState]:
    """The stream from s = 2 on, whose m values form the set M."""
    return islice(pell_states(), 2, None)


def first_states(count: int, raw: bool = False) -> Iterator[PellState]:
    """The first `count` states with s >= 2, or from s = 0 with raw; more
    than COUNT_GUARD raise GuardError before any state is made."""
    if count > COUNT_GUARD:
        raise GuardError(f"pell guard: count={count} exceeds {COUNT_GUARD}")
    return islice(pell_states() if raw else m_states(), count)


def generate_M(count: int) -> list[int]:
    """First `count` members of M in increasing order: [40, 221, 1276, ...]."""
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    return [state.m for state in islice(m_states(), count)]


def is_in_M(m: int) -> bool:
    """Membership test: the first member of M that is >= m equals m.

    The stream grows by a factor of about 5.83 per step, so this is cheap.
    Only membership in this recursion's family is decided; no claim is made
    that every m with the same arithmetic properties belongs to it.
    """
    return next(state.m for state in m_states() if state.m >= m) == m


def verify_pell_state(state: PellState) -> dict[str, bool]:
    """Named invariant checks for a state; key "passed" is their conjunction.

    Checks: the quadratic identity x^2 - 2*y^2 = 7, oddness of x and y,
    integrality of m = (x+5)/2, the residue m mod 4 (0 for even s, 1 for odd
    s), and that y is exactly the square root of 2*m^2 - 10*m + 9.
    """
    x, y, m = state.x, state.y, state.m
    checks = {
        "pell_identity": x * x - 2 * y * y == 7,
        "x_odd": x % 2 == 1,
        "y_odd": y % 2 == 1,
        "m_integral": (x + 5) % 2 == 0,
        "m_mod4": m % 4 == (0 if state.s % 2 == 0 else 1),
        "radicand_square": y * y == 2 * m * m - 10 * m + 9,
    }
    checks["passed"] = all(checks.values())
    return checks

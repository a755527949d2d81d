"""Seeded workload rounds.

A round is the list of CLI calls a workload repeats in its closed loop.  Every
call is a dict with the ``argv`` handed to ``python -m avoidpairs.cli``, the
``kind`` that selects its checker in ``checks.py``, and whatever the checker
needs.  Rounds come from ``random.Random(seed)``, so a seed fixes every input;
the program only ever sees the generated argv.

Why these three workloads (each item on the roadmap gets one workload that
exercises its layer and one that does not):

* scan-t4 is the bulk floor scan plus JSON emission (criterion, exactarith,
  parallel, cli emission); canon and oracle do no work.
* oracle-sweep builds every class on 7 vertices (canon, oracle enumeration);
  criterion and emission do almost nothing.

Call sizes are chosen so that a 40 s run holds at least 20 calls: per-call wall
time on a small shared machine varies by about 15% from call to call, and a
median over a handful of calls does not settle.
* cert-mix is many short calls, where interpreter start, parsing and the
  realizability decision dominate.  Each round also asks one n = 9 question
  on the windowed path above the full-cache level, so a change that speeds
  the sweep by building whole levels shows there as a slowdown.
"""

from __future__ import annotations

import math
import os
import random
from functools import lru_cache

from checks import binom2, smallest_clique_linear

SCAN_T4_WIDTH = 100_000
SWEEP_N = 7
QUERY_N = 9
QUERY_E = 5
MIX_ORACLE_N = (6, 5)


def pair_key(*parts: int) -> str:
    return ",".join(str(p) for p in parts)


def sweep_pairs() -> list[tuple[int, int]]:
    """Every pair the sweep may ask about: 3 <= m <= 6, all f."""
    return [(m, f) for m in range(3, 7) for f in range(binom2(m) + 1)]


def arrows_cases() -> list[tuple[int, int, int, int]]:
    """Every (n, e, m, f) an oracle arrows call may ask about."""
    cases = [(QUERY_N, QUERY_E, m, f) for m in range(3, 8) for f in range(binom2(m) + 1)]
    for n in MIX_ORACLE_N:
        cases += [(n, e, m, f) for e in range(binom2(n) + 1) for m in range(3, n)
                  for f in range(binom2(m) + 1)]
    return cases


@lru_cache(maxsize=None)
def _certified_pairs() -> tuple[tuple[int, int], ...]:
    """Pairs with 20 <= m <= 40 whose both orientations are clique+forest
    impossible, by the linear reference; witnesses are built against them."""
    return tuple(
        (m, f) for m in range(20, 41) for f in range(binom2(m) + 1)
        if smallest_clique_linear(m, f) is None
        and smallest_clique_linear(m, binom2(m) - f) is None
    )


def _clique_size(e: int) -> int:
    """Largest k with binom2(k) <= e, the witness builder's clique size (0 for e = 0)."""
    return 0 if e == 0 else (1 + math.isqrt(8 * e + 1)) // 2


def scan_t4_round(rng: random.Random, golden: dict, workdir: str) -> list[dict]:
    lo = rng.randrange(740, 100_740)
    hi = lo + SCAN_T4_WIDTH
    return [{"kind": "scan-t4", "from": lo, "to": hi, "check_seed": rng.random(),
             "argv": ["criterion", "scan-t4", "--from", str(lo), "--to", str(hi)]}]


def oracle_sweep_round(rng: random.Random, golden: dict, workdir: str) -> list[dict]:
    m, f = rng.choice(sweep_pairs())
    return [{"kind": "oracle-sn", "n": SWEEP_N, "m": m, "f": f,
             "golden_S": golden["sweep"][pair_key(SWEEP_N, m, f)],
             "argv": ["oracle", "sn", "--n", str(SWEEP_N), "--m", str(m), "--f", str(f)]}]


def _arrows_call(rng: random.Random, golden: dict, n: int, e: int) -> dict:
    """One arrows call at (n, e); forced and non-forced verdicts equally likely
    where both exist."""
    by_verdict: dict[bool, list[tuple[int, int]]] = {True: [], False: []}
    for m in range(3, min(n, 8)):
        for f in range(binom2(m) + 1):
            by_verdict[golden["arrows"][pair_key(n, e, m, f)]].append((m, f))
    choices = [v for v in (True, False) if by_verdict[v]]
    verdict = rng.choice(choices)
    m, f = rng.choice(by_verdict[verdict])
    return {"kind": "oracle-arrows", "n": n, "e": e, "m": m, "f": f, "golden": verdict,
            "argv": ["oracle", "arrows", "--n", str(n), "--e", str(e),
                     "--m", str(m), "--f", str(f)]}


def cert_mix_round(rng: random.Random, golden: dict, workdir: str) -> list[dict]:
    calls = []
    for _ in range(2):
        m = rng.randint(40, 2000)
        f = min(max(binom2(m) // 2 + rng.randint(-m, m), 0), binom2(m))
        calls.append({"kind": "cert", "m": m, "f": f,
                      "argv": ["criterion", "cert", "--m", str(m), "--f", str(f)]})
    m = rng.randint(40, 5000)
    q = rng.randint(-m, m)
    calls.append({"kind": "eval", "m": m, "q": q,
                  "argv": ["criterion", "eval", "--m", str(m), "--q", str(q)]})
    m = rng.randint(10_000, 20_000)
    calls.append({"kind": "scan-interval", "m": m, "check_seed": rng.random(),
                  "argv": ["criterion", "scan-interval", "--m", str(m)]})
    lo = rng.randint(200, 3000)
    calls.append({"kind": "scan-mod23", "from": lo, "to": lo + 400, "check_seed": rng.random(),
                  "argv": ["criterion", "scan-mod23", "--from", str(lo), "--to", str(lo + 400)]})

    pm, pf = rng.choice(_certified_pairs())
    n = rng.randint(pm, 62)  # witness build refuses n > 62 (graph6 limit)
    total = binom2(n)
    while True:
        # mirrors witness.build_witness_or_complement: dense e builds the
        # complement; a clique K_k with binom2(k) <= e' < binom2(k+1) and a
        # star holding the rest, which has room for n - k - 1 edges
        e = rng.randint(0, total)
        complemented = 2 * e > total + 1
        e_struct = total - e if complemented else e
        k = _clique_size(e_struct)
        if e_struct - binom2(k) <= n - k - 1:
            break
    path = os.path.join(workdir, f"witness-{rng.getrandbits(48):012x}.g6")
    calls.append({"kind": "witness-build", "n": n, "e": e, "graph6_path": path,
                  "argv": ["witness", "build", "--n", str(n), "--e", str(e), "--p", str(pm),
                           "--pair", f"{pm},{pf}", "--graph6", path]})
    # the clique of a built witness is always the first k vertices
    verify = ["witness", "verify", "--graph6", path, "--pair", f"{pm},{pf}",
              "--clique-vertices", ",".join(str(v) for v in range(k)), "--p", str(pm)]
    if complemented:
        verify.append("--complemented")
    calls.append({"kind": "witness-verify", "m": pm, "f": pf, "argv": verify})

    m = rng.randint(2, 200)
    f = rng.randint(0, m * m // 2)
    calls.append({"kind": "bipartite", "m": m, "f": f,
                  "argv": ["bipartite", "realize", "--m", str(m), "--f", str(f), "--json"]})
    count = rng.randint(3, 10)
    calls.append({"kind": "pell", "count": count, "argv": ["pell", "--count", str(count)]})
    q, bins = rng.randint(0, 100), rng.choice([8, 10, 16])
    calls.append({"kind": "equidist", "q": q, "n": 2000, "bins": bins,
                  "argv": ["diag", "equidist", "--q", str(q), "--n", "2000",
                           "--bins", str(bins)]})
    for n in MIX_ORACLE_N:
        calls.append(_arrows_call(rng, golden, n, rng.randint(0, binom2(n))))
    calls.append(_arrows_call(rng, golden, QUERY_N, QUERY_E))
    return calls


ROUNDS = {
    "scan-t4": scan_t4_round,
    "oracle-sweep": oracle_sweep_round,
    "cert-mix": cert_mix_round,
}

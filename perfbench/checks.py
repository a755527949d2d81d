"""Output checks for every benchmark call.

Each checker takes the call description built by ``workloads.py``, the exit
code and the stdout bytes, and returns a list of problems (empty means the
output is correct).  The references here are independent of the package: they
recompute floors with ``math.isqrt``, decide clique-plus-forest realizability
by a linear clique-size scan, decode graph6 themselves and count induced edges
by brute force over subsets.  Verdicts with no cheap reference (forced
arrowing verdicts and ``S`` sets) are compared against ``golden.json``.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations


def binom2(x: int) -> int:
    return x * (x - 1) // 2


def smallest_clique_linear(m: int, f: int) -> int | None:
    """Smallest x such that K_x plus a forest on m - x vertices has f edges."""
    for x in range(m + 1):
        clique = binom2(x)
        if clique > f:
            return None
        if f - clique <= max(0, m - x - 1):
            return x
    return None


def lr_floors(m: int, f: int) -> tuple[int, int]:
    """(L, R) = floor((5 + sqrt(8(f-m)+9))/2), floor((1 + sqrt(8f+1))/2)."""
    return (5 + math.isqrt(8 * (f - m) + 9)) // 2, (1 + math.isqrt(8 * f + 1)) // 2


def decode_graph6(text: str) -> tuple[int, list[int]]:
    """Header-less graph6 with n <= 62, as (n, adjacency bitset rows)."""
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"bad graph6 order byte {text[0]!r}")
    body = text[1:]
    if len(body) != (binom2(n) + 5) // 6:
        raise ValueError(f"graph6 body has {len(body)} bytes for n={n}")
    bits = []
    for ch in body:
        word = ord(ch) - 63
        if not 0 <= word < 64:
            raise ValueError(f"bad graph6 byte {ch!r}")
        bits.extend(word >> k & 1 for k in range(5, -1, -1))
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    if any(bits[idx:]):
        raise ValueError("nonzero graph6 padding")
    return n, rows


def edge_count(rows: list[int]) -> int:
    return sum(r.bit_count() for r in rows) // 2


def induces(rows: list[int], n: int, m: int, f: int) -> bool:
    """True iff some m-subset of the n vertices induces exactly f edges."""
    for subset in combinations(range(n), m):
        mask = sum(1 << v for v in subset)
        if sum((rows[v] & mask).bit_count() for v in subset) // 2 == f:
            return True
    return False


def _records(stdout: bytes) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line]


def _one_record(stdout: bytes) -> dict:
    recs = _records(stdout)
    if len(recs) != 1:
        raise ValueError(f"expected one JSON record, got {len(recs)}")
    return recs[0]


def _counterexample_problems(g6, n: int, e: int, m: int, f: int) -> list[str]:
    try:
        gn, rows = decode_graph6(g6)
    except (TypeError, ValueError, IndexError) as exc:
        return [f"counterexample for e={e} does not decode: {exc}"]
    if gn != n or edge_count(rows) != e:
        return [f"counterexample for e={e} has n={gn}, e={edge_count(rows)}"]
    if induces(rows, n, m, f):
        return [f"counterexample for e={e} does arrow ({m},{f})"]
    return []


def _cert_problems(m: int, f: int, rec: dict) -> list[str]:
    """Compare one cert record (criterion cert / scan-interval result)."""
    comp = binom2(m) - f
    xd = smallest_clique_linear(m, f)
    xc = smallest_clique_linear(m, comp)
    certified = xd is None and xc is None
    if rec.get("f") != f or rec.get("certified") is not certified:
        return [f"({m},{f}): certified={rec.get('certified')}, reference {certified}"]
    if certified:
        want = {"L_direct": lr_floors(m, f)[0], "R_direct": lr_floors(m, f)[1],
                "L_complement": lr_floors(m, comp)[0], "R_complement": lr_floors(m, comp)[1]}
    else:
        direction, x, size = ("direct", xd, f) if xd is not None else ("complement", xc, comp)
        want = {"direction": direction, "x": x, "forest_vertices": m - x,
                "forest_edges": size - binom2(x)}
    bad = [k for k, v in want.items() if rec.get(k) != v]
    return [f"({m},{f}): fields {bad} differ from reference"] if bad else []


def _realizability_problems(m: int, f: int, rec: dict) -> list[str]:
    x = smallest_clique_linear(m, f)
    if rec.get("f") != f or rec.get("realizable") is not (x is not None):
        return [f"({m},{f}): realizable={rec.get('realizable')}, reference x={x}"]
    if x is not None:
        ok = rec.get("x") == x and rec.get("forest_edges") == f - binom2(x)
    else:
        ok = (rec.get("L"), rec.get("R")) == lr_floors(m, f)
    return [] if ok else [f"({m},{f}): decomposition or floors differ from reference"]


# ---------------------------------------------------------------------------
# per-kind checkers


def check_scan_t4(call: dict, stdout: bytes) -> list[str]:
    lo, hi = call["from"], call["to"]
    recs = _records(stdout)
    want_ms = [m for m in range(max(lo, 5), hi + 1) if m % 4 in (0, 1)]
    if [r["m"] for r in recs] != want_ms:
        return [f"m sequence differs from [{lo}, {hi}] restricted to m = 0, 1 (mod 4)"]
    problems = []
    for r in recs:
        center = r["L0"] > r["R0"]
        offset = r["L6m"] is not None and r["L6m"] > r["R6m"] and r["Lneg6m"] > r["Rneg6m"]
        want = "center" if center else ("offset6m" if offset else "none")
        if r["which"] == "none" or r["which"] != want:
            problems.append(f"m={r['m']}: which={r['which']!r}, reference {want!r}")
            break
    for r in random.Random(call["check_seed"]).sample(recs, min(64, len(recs))):
        m = r["m"]
        dy, dz = 2 * m * m - 10 * m + 9, 2 * m * m - 2 * m + 1
        want = {"L0": (5 + math.isqrt(dy)) // 2, "R0": (1 + math.isqrt(dz)) // 2}
        if (m - 5) ** 2 >= 24 * m:
            want.update({
                "L6m": (5 + math.isqrt(dy - 48 * m)) // 2,
                "R6m": (1 + math.isqrt(dz - 48 * m)) // 2,
                "Lneg6m": (5 + math.isqrt(dy + 48 * m)) // 2,
                "Rneg6m": (1 + math.isqrt(dz + 48 * m)) // 2,
            })
        bad = [k for k, v in want.items() if r[k] != v]
        if bad:
            problems.append(f"m={m}: {bad} differ from isqrt recomputation")
    return problems


def check_oracle_sn(call: dict, stdout: bytes) -> list[str]:
    n, m, f = call["n"], call["m"], call["f"]
    rec = _one_record(stdout)
    problems = []
    if rec["S"] != call["golden_S"]:
        problems.append(f"S for ({m},{f}) differs from the golden table")
    missing = [e for e in range(binom2(n) + 1) if e not in rec["S"]]
    if sorted(int(e) for e in rec["counterexamples"]) != missing:
        problems.append("counterexample keys are not the complement of S")
    for e_str, g6 in rec["counterexamples"].items():
        problems += _counterexample_problems(g6, n, int(e_str), m, f)
    if rec["fixed_n_fraction"] != len(rec["S"]) / (binom2(n) + 1):
        problems.append("fixed_n_fraction is not |S| / (binom2(n) + 1)")
    return problems


def check_oracle_arrows(call: dict, stdout: bytes) -> list[str]:
    n, e, m, f = call["n"], call["e"], call["m"], call["f"]
    rec = _one_record(stdout)
    if rec["arrows"] is not call["golden"]:
        return [f"({n},{e})->({m},{f}) is {rec['arrows']}, golden {call['golden']}"]
    if rec["arrows"]:
        return [] if rec["counterexample"] is None else ["forced verdict with a counterexample"]
    return _counterexample_problems(rec["counterexample"], n, e, m, f)


def check_cert(call: dict, stdout: bytes) -> list[str]:
    rec = _one_record(stdout)
    if rec.get("m") != call["m"]:
        return [f"record m={rec.get('m')}, asked {call['m']}"]
    return _cert_problems(call["m"], call["f"], rec)


def check_eval(call: dict, stdout: bytes) -> list[str]:
    m, q = call["m"], call["q"]
    rec = _one_record(stdout)
    dy, dz = 2 * m * m - 10 * m - 8 * q + 9, 2 * m * m - 2 * m - 8 * q + 1
    L, R = (5 + math.isqrt(dy)) // 2, (1 + math.isqrt(dz)) // 2
    fb = rec["frac_y"]["fracbits"]
    frac = (math.isqrt(dy << 2 * fb) >> 1) - (math.isqrt(dy) // 2 << fb)
    want = {"m": m, "q": q, "Dy": dy, "Dz": dz, "L": L, "R": R,
            "verdict": "L>R" if L > R else "L<=R"}
    bad = [k for k, v in want.items() if rec.get(k) != v]
    if rec["frac_y"]["value"] != frac:
        bad.append("frac_y")
    return [f"eval ({m},{q}): {bad} differ from reference"] if bad else []


def check_scan_interval(call: dict, stdout: bytes) -> list[str]:
    m = call["m"]
    rec = _one_record(stdout)
    b = binom2(m)
    f_lo = max((20 * b - 7 * m) // 40 + 1, 0)
    f_hi = min(-(-(20 * b + 7 * m) // 40) - 1, b)
    results = rec["results"]
    if (rec["f_lo"], rec["f_hi"]) != (f_lo, f_hi) or [r["f"] for r in results] != list(
        range(f_lo, f_hi + 1)
    ):
        return [f"scan-interval m={m}: f range differs from ({f_lo}, {f_hi})"]
    problems = []
    if rec["all_pass"] is not all(r["certified"] for r in results):
        problems.append("all_pass disagrees with the results")
    for r in results:
        if r["certified"] and (r["L_direct"], r["R_direct"]) != lr_floors(m, r["f"]):
            problems.append(f"({m},{r['f']}): floors differ from isqrt recomputation")
            break
    for r in random.Random(call["check_seed"]).sample(results, min(8, len(results))):
        problems += _cert_problems(m, r["f"], r)
    return problems


def check_scan_mod23(call: dict, stdout: bytes) -> list[str]:
    lo, hi = call["from"], call["to"]
    recs = _records(stdout)
    if [r["m"] for r in recs] != [m for m in range(max(lo, 2), hi + 1) if m % 4 in (2, 3)]:
        return [f"scan-mod23 m sequence differs from [{lo}, {hi}]"]
    problems = []
    for r in recs:
        if r["center_avoidable"] is any(s["realizable"] for s in r["center"]):
            problems.append(f"m={r['m']}: center_avoidable inconsistent")
    for r in random.Random(call["check_seed"]).sample(recs, min(6, len(recs))):
        m, total = r["m"], binom2(r["m"])
        f0 = total // 2
        problems += _realizability_problems(m, f0, r["center"][0])
        problems += _realizability_problems(m, total - f0, r["center"][1])
        f6 = f0 - 6 * m
        if 0 <= f6 <= total:
            problems += _realizability_problems(m, f6, r["offset"][0])
            problems += _realizability_problems(m, total - f6, r["offset"][1])
        elif r["f_offset"] is not None:
            problems.append(f"m={m}: offset present outside [0, binom2(m)]")
    return problems


def check_witness_build(call: dict, stdout: bytes) -> list[str]:
    n, e = call["n"], call["e"]
    rec = _one_record(stdout)
    try:
        gn, rows = decode_graph6(rec["graph6"])
    except (TypeError, ValueError, IndexError) as exc:
        return [f"witness graph6 does not decode: {exc}"]
    problems = []
    if gn != n or edge_count(rows) != e or rec["n"] != n or rec["e"] != e:
        problems.append(f"witness has n={gn}, e={edge_count(rows)}; asked ({n},{e})")
    if rec["adjacency"] != [[u for u in range(gn) if rows[v] >> u & 1] for v in range(gn)]:
        problems.append("adjacency lists disagree with the graph6 string")
    full = (1 << gn) - 1
    struct = [(full ^ (1 << v) ^ r) & full for v, r in enumerate(rows)] if rec["complemented"] else rows
    clique = rec["clique_vertices"]
    cmask = sum(1 << v for v in clique)
    if any((struct[v] & cmask).bit_count() != len(clique) - 1 for v in clique):
        problems.append("clique vertices do not induce a complete graph")
    if any(struct[v] & ~cmask & full for v in clique):
        problems.append("edges cross between the clique and the girth part")
    if rec["verify"] != {"passed": True, "failures": []}:
        problems.append(f"witness verify failed: {rec['verify']}")
    with open(call["graph6_path"]) as fh:
        if fh.read().strip() != rec["graph6"]:
            problems.append("graph6 file differs from the record")
    return problems


def check_witness_verify(call: dict, stdout: bytes) -> list[str]:
    rec = _one_record(stdout)
    if rec != {"pair": {"m": call["m"], "f": call["f"]}, "passed": True, "failures": []}:
        return [f"witness verify record {rec}"]
    return []


def check_bipartite(call: dict, stdout: bytes) -> list[str]:
    m, f = call["m"], call["f"]
    rec = _one_record(stdout)
    x, y = rec["biclique"]
    edges = [tuple(edge) for edge in rec["forest_edges"]]
    problems = []
    if (rec["m"], rec["f"], rec["complemented"], rec["verified"]) != (m, f, False, True):
        problems.append(f"bipartite header {rec}")
    if not (0 <= x <= m and 0 <= y <= m) or x * y + len(edges) != f:
        problems.append(f"K_{{{x},{y}}} plus {len(edges)} forest edges is not f={f}")
    if len(set(edges)) != len(edges) or any(
        not (x <= li < m and y <= rj < m) for li, rj in edges
    ):
        problems.append("forest edges repeat or touch the biclique")
    parent = list(range(2 * m))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    for li, rj in edges:
        ra, rb = find(li), find(m + rj)
        if ra == rb:
            problems.append("forest edges close a cycle")
            break
        parent[ra] = rb
    return problems


def check_pell(call: dict, stdout: bytes) -> list[str]:
    recs = _records(stdout)
    if len(recs) != call["count"]:
        return [f"pell emitted {len(recs)} states, asked {call['count']}"]
    problems = []
    if recs[0]["m"] != 40:
        problems.append("first certified order is not 40")
    for r in recs:
        if r["x"] ** 2 - 2 * r["y"] ** 2 != 7 or r["m"] != (r["x"] + 5) // 2 or not all(
            r["checks"].values()
        ):
            problems.append(f"pell state s={r['s']} fails x^2 - 2y^2 = 7 or its checks")
    for a, b in zip(recs, recs[1:]):
        if (b["x"], b["y"]) != (3 * a["x"] + 4 * a["y"], 2 * a["x"] + 3 * a["y"]):
            problems.append(f"pell state s={b['s']} does not follow the recursion")
    return problems


def check_equidist(call: dict, stdout: bytes) -> list[str]:
    q, count, bins = call["q"], call["n"], call["bins"]
    rec = _one_record(stdout)
    m0 = 1
    while 4 * m0 < 3 or 2 * (4 * m0) ** 2 - 40 * m0 - 8 * q + 9 < 0:
        m0 += 1
    hist = [0] * bins
    for i in range(count):
        m = 4 * (m0 + i)
        dy = 2 * m * m - 10 * m - 8 * q + 9
        hist[math.isqrt(dy * bins * bins) // 2 - bins * (math.isqrt(dy) // 2)] += 1
    disc, cum = 0.0, 0
    for k in range(1, bins + 1):
        cum += hist[k - 1]
        disc = max(disc, abs(cum / count - k / bins))
    want = {"q": q, "count": count, "bins": bins, "stride": 4, "m_start": m0,
            "histogram": hist, "discrepancy": disc}
    bad = [k for k, v in want.items() if rec.get(k) != v]
    return [f"equidist q={q}: {bad} differ from reference"] if bad else []


CHECKERS = {
    "scan-t4": check_scan_t4,
    "oracle-sn": check_oracle_sn,
    "oracle-arrows": check_oracle_arrows,
    "cert": check_cert,
    "eval": check_eval,
    "scan-interval": check_scan_interval,
    "scan-mod23": check_scan_mod23,
    "witness-build": check_witness_build,
    "witness-verify": check_witness_verify,
    "bipartite": check_bipartite,
    "pell": check_pell,
    "equidist": check_equidist,
}


def check_call(call: dict, exit_code: int, stdout: bytes) -> list[str]:
    """Problems with one call's result; an unexpected exit code is one."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return CHECKERS[call["kind"]](call, stdout)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import json
import math
import time

import pytest

from avoidpairs.criterion import (
    Impossible,
    PairMF,
    Realizable,
    clique_forest_realizable,
    eval_criterion,
    scan_offset_disjunction,
)
from avoidpairs.equidist import diag_equidist
from avoidpairs.exactarith import binom2, isqrt
from avoidpairs.graphs import from_graph6
from avoidpairs.oracle import (
    arrows,
    clique_forest_oracle,
    compute_S_n,
    enumerate_graphs,
)
from avoidpairs.pell import generate_M, pell_next, pell_states, verify_pell_state
from avoidpairs.witness import (
    Infeasible,
    build_witness_or_complement,
    verify_witness,
)
from helpers import class_counts, induced_size_set, labeled_class_counts, xcheck_lr_equivalence


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_m_prefix_and_recursion_invariants(capsys):
    from avoidpairs.cli import main

    t0 = time.perf_counter()
    code = main(["pell", "--count", "3"])
    out = capsys.readouterr().out
    ms = [json.loads(line)["m"] for line in out.splitlines()]
    ok = code == 0 and ms == [40, 221, 1276]

    import itertools

    for state in itertools.islice(pell_states(), 200):
        ok = ok and state.x * state.x - 2 * state.y * state.y == 7
        ok = ok and state.x % 8 == (3 if state.s % 2 == 0 else 5)
        ok = ok and state.y % 8 == (1 if state.s % 4 in (0, 1) else 5)
        ok = ok and verify_pell_state(state)["passed"]
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _report(1, "M prefix + 200-step recursion invariants", ok and elapsed < 1.0,
                f"{elapsed:.3f}s")


def test_criterion_2_arithmetic_on_first_ten_M():
    t0 = time.perf_counter()
    ok = True
    expected_lr = {40: (29, 28), 221: (157, 156)}
    for m in generate_M(10):
        dy = 2 * m * m - 10 * m + 9
        root = isqrt(dy)
        ok = ok and root * root == dy and root % 2 == 1
        ev = eval_criterion(m, 0)
        ok = ok and ev.frac_y.value == 1 << (ev.frac_y.fracbits - 1)
        ok = ok and ev.L > ev.R
        if m in expected_lr:
            ok = ok and (ev.L, ev.R) == expected_lr[m]
    elapsed = time.perf_counter() - t0
    _report(2, "odd-square radicand, exact 1/2 fraction, L>R on M", ok and elapsed < 1.0,
            f"{elapsed:.3f}s")


def test_criterion_3_offset_disjunction_scan():
    t0 = time.perf_counter()
    records = list(scan_offset_disjunction(740, 100_000, assert_all=True))
    failures = [row for row in records if row[7] == "none"]
    elapsed = time.perf_counter() - t0
    _report(3, "center-or-offset disjunction on [740, 1e5]",
            not failures and elapsed < 10.0,
            f"{len(records)} m values, {elapsed:.2f}s")


def test_criterion_4_criterion_oracle_equivalence():
    t0 = time.perf_counter()
    mismatch_small = []
    for m in range(1, 13):
        for f in range(binom2(m) + 1):
            pair = PairMF(m, f)
            search = isinstance(clique_forest_realizable(pair), Realizable)
            if search != clique_forest_oracle(pair):
                mismatch_small.append((m, f))
    sweep = xcheck_lr_equivalence(5, 3000)
    elapsed = time.perf_counter() - t0
    ok = not mismatch_small and not sweep["mismatches"] and elapsed < 60.0
    _report(4, "search=oracle (m<=12) and search=floors (m<=3000)", ok,
            f"{sweep['pairs_checked']} floor pairs, {elapsed:.2f}s")


def test_criterion_5_witness_soundness():
    t0 = time.perf_counter()
    both_impossible = [
        PairMF(m, f)
        for m in range(1, 7)
        for f in range(binom2(m) + 1)
        if isinstance(clique_forest_realizable(PairMF(m, f)), Impossible)
        and isinstance(clique_forest_realizable(PairMF(m, f).complement()), Impossible)
    ]
    ok = both_impossible == [PairMF(5, 5)]
    built_count = 0
    violations = 0
    for n in range(3, 13):
        for e in range(binom2(n) + 1):
            w = build_witness_or_complement(n, e, n)
            if isinstance(w, Infeasible):
                continue
            built_count += 1
            if w.graph.edge_count() != e:
                violations += 1
            structure_pair = PairMF(min(n, 3), 0)  # any pair; structural part only
            verdict = verify_witness(w, structure_pair)
            structural = [f for f in verdict.failures if f != "realizable"]
            if structural:
                violations += 1
            for pair in both_impossible:
                cert = verify_witness(w, pair)
                if not cert.passed:
                    violations += 1
                if arrows(w.graph, pair):
                    violations += 1
    elapsed = time.perf_counter() - t0
    _report(5, "built witnesses verify; certified non-arrowing is exhaustive-true",
            ok and violations == 0,
            f"{built_count} witnesses, pairs={[(p.m, p.f) for p in both_impossible]}, "
            f"{elapsed:.2f}s")


def test_criterion_6_arrowing_oracle_sanity():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 9):
        total = binom2(n)
        rep1 = compute_S_n(n, PairMF(2, 1))
        rep0 = compute_S_n(n, PairMF(2, 0))
        ok = ok and rep1.S == tuple(range(1, total + 1))
        ok = ok and rep0.S == tuple(range(0, total))
    duality_ok = True
    for n in range(1, 8):
        for e in range(binom2(n) + 1):
            for g in enumerate_graphs(n, e):
                gc = g.complement()
                for m in range(1, n + 1):
                    lhs = induced_size_set(g, m)
                    rhs = frozenset(binom2(m) - c for c in induced_size_set(gc, m))
                    if lhs != rhs:
                        duality_ok = False
    counts_ok = all(labeled_class_counts(n) == class_counts(n) for n in (4, 5, 6))
    elapsed = time.perf_counter() - t0
    _report(6, "forced S_n shapes, complement duality, recounted class counts",
            ok and duality_ok and counts_ok, f"{elapsed:.2f}s")


def test_criterion_7_bipartite_decomposition_exhaustive():
    from avoidpairs.bipartite import BipartitePair, bipartite_realize, verify_bipartite_decomp

    t0 = time.perf_counter()
    cases = 0
    failures = 0
    for m in range(1, 31):
        for f in range(m * m // 2 + 1):
            pair = BipartitePair(m, f)
            verdict = verify_bipartite_decomp(bipartite_realize(pair), pair)
            cases += 1
            if not verdict.passed:
                failures += 1
    elapsed = time.perf_counter() - t0
    _report(7, "biclique+forest decomposition for all m<=30",
            failures == 0 and elapsed < 5.0, f"{cases} cases, {elapsed:.2f}s")


def test_criterion_8_equidistribution_diagnostic():
    t0 = time.perf_counter()
    large = diag_equidist(0, 100_000, 100, fracbits=128)
    small = diag_equidist(0, 10_000, 100, fracbits=128)
    on_m = diag_equidist(0, 10, 10, fracbits=128, restrict_to_M=True)
    half_bin = (on_m.histogram[5] == 10) and sum(on_m.histogram) == 10
    ok = large.discrepancy < 0.02 and large.discrepancy < small.discrepancy and half_bin
    elapsed = time.perf_counter() - t0
    _report(8, "discrepancy < 0.02, decreasing in N, M mass at 1/2", ok,
            f"D(1e5)={large.discrepancy:.2e}, D(1e4)={small.discrepancy:.2e}, {elapsed:.2f}s")


def test_criterion_9_determinism_and_parallel_equivalence():
    import json as _json

    t0 = time.perf_counter()
    serial = list(scan_offset_disjunction(740, 5000))
    repeat = list(scan_offset_disjunction(740, 5000))
    scans_ok = _json.dumps(serial) == _json.dumps(repeat)
    oracle_ok = compute_S_n(7, PairMF(4, 3)) == compute_S_n(7, PairMF(4, 3))
    xs = xcheck_lr_equivalence(5, 500)
    xcheck_ok = xs == xcheck_lr_equivalence(5, 500) and not xs["mismatches"]
    elapsed = time.perf_counter() - t0
    _report(9, "serial/repeat runs byte-identical",
            scans_ok and oracle_ok and xcheck_ok, f"{elapsed:.2f}s")

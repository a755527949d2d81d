"""Enumeration, arrowing, S_n reports, and the explicit clique-plus-forest
oracle against the criterion module."""

import hashlib
import random
import time
import tracemalloc

import pytest

from avoidpairs import oracle
from avoidpairs.criterion import PairMF, Realizable, clique_forest_realizable
from avoidpairs.errors import DomainError, GuardError
from avoidpairs.exactarith import binom2
from avoidpairs.graphs import Graph, from_graph6, rows_of, to_graph6
from avoidpairs.oracle import (
    _classes,
    arrows,
    arrows_pair,
    clique_forest_oracle,
    compute_S_n,
    enumerate_graphs,
)
from helpers import (
    class_counts,
    classes_by_set_dedup,
    failing_classes,
    induced_size_set,
    labeled_class_counts,
    least_extension_reference,
    least_failures_reference,
    sorted_classes,
)

KNOWN_TOTALS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def test_class_totals_match_known_sequence():
    for n, want in KNOWN_TOTALS.items():
        assert sum(class_counts(n).values()) == want


def test_single_edge_count_examples():
    assert len(list(enumerate_graphs(3, 1))) == 1
    graphs_4_3 = list(enumerate_graphs(4, 3))
    assert len(graphs_4_3) == 3
    # path, star, triangle plus isolated vertex: distinguish by degree multiset
    degrees = sorted(tuple(sorted(r.bit_count() for r in g.rows)) for g in graphs_4_3)
    assert degrees == [(0, 2, 2, 2), (1, 1, 1, 3), (1, 1, 2, 2)]


def test_enumeration_is_deterministic_and_guarded():
    graphs = list(enumerate_graphs(6, 7))
    assert [g.rows for g in graphs] == [g.rows for g in enumerate_graphs(6, 7)]
    # equal-length graph6 strings sort like their upper-triangle bits
    codes = [to_graph6(g) for g in graphs]
    assert codes == sorted(codes)
    with pytest.raises(GuardError):
        list(enumerate_graphs(11, 5))
    with pytest.raises(DomainError):
        list(enumerate_graphs(4, 7))


def test_windowed_enumeration_agrees_with_full_cache():
    # the (e, e) window against the e-bucket of the full level, which an
    # S_n sweep streams
    for n, e in [(5, 4), (6, 7), (7, 0), (7, 21), (6, 15), (8, 3), (8, 14)]:
        full = sorted_classes(n, 0, binom2(n))
        bucket = tuple(code for code in full if code.bit_count() == e)
        assert sorted_classes(n, e, e) == bucket


def test_canonical_augmentation_matches_set_dedup_reference():
    # every window at n <= 6, against the edge-count filter of the
    # reference's full level (one windowed reference build per window would
    # cost 6 s); every single edge count and the full level at n = 7
    for n in range(1, 7):
        full = classes_by_set_dedup(n, 0, binom2(n))
        for lo in range(binom2(n) + 1):
            for hi in range(lo, binom2(n) + 1):
                want = tuple(code for code in full if lo <= code.bit_count() <= hi)
                assert sorted_classes(n, lo, hi) == want, (n, lo, hi)
    for lo, hi in [(e, e) for e in range(binom2(7) + 1)] + [(0, binom2(7))]:
        assert sorted_classes(7, lo, hi) == classes_by_set_dedup(7, lo, hi), (lo, hi)


def test_level_8_bytes_are_pinned():
    # the classes on 8 vertices and their order, as graph6 lines
    digest = hashlib.sha256()
    for code in sorted_classes(8, 0, binom2(8)):
        digest.update((to_graph6(Graph(8, rows_of(code, 8))) + "\n").encode())
    assert digest.hexdigest() == "2415a1e55618d429e08e9b28ac59a8ea8e97f81ad24069d6fa3f383a7ce2a03c"


def _labelled_build(monkeypatch, n, e_lo, e_hi, pair=None):
    """The classes of one window (that do not arrow the pair, if one is
    given) and the argument tuple of each labelling."""
    calls = []
    labelling = oracle.canonical_rows

    def counted(*args, **kwargs):
        calls.append(args)
        return labelling(*args, **kwargs)

    monkeypatch.setattr(oracle, "canonical_rows", counted)
    return list(_classes(n, e_lo, e_hi, pair)), calls


def test_level_7_build_labels_each_surviving_candidate_once(monkeypatch):
    # the count pins the build's work: candidates outside the last cell of
    # the root partition are never labelled, nor a second mask of one orbit
    # of the parent's automorphisms, and no candidate twice
    level, calls = _labelled_build(monkeypatch, 7, 0, binom2(7))
    assert len(level) == len(set(level)) == 1044
    assert len(calls) == 1253
    assert len({args[0] for args in calls}) == len(calls)


def test_sparse_window_labellings_are_pinned(monkeypatch):
    # parents with many twins: the same masks are labelled however many
    # generators the labelling records for their groups
    window, calls = _labelled_build(monkeypatch, 10, 5, 5)
    assert len(window) == len(set(window)) == 26
    assert len(calls) == 224


def test_pruned_level_7_labellings_are_pinned(monkeypatch):
    # children that arrow (4, 3) through the new vertex are dropped before
    # any labelling, and so is everything that would grow from them
    level, calls = _labelled_build(monkeypatch, 7, 0, binom2(7), PairMF(4, 3))
    assert sorted(level) == sorted(failing_classes(7, PairMF(4, 3)))
    assert len(calls) == 66


def test_pruned_stream_matches_unpruned_reference():
    # the pruned stream is exactly the classes that fail the pair; the S_n
    # report built from it has the S of the unpruned stream decided by
    # arrows, and the counterexamples of the column-by-column reference
    cases = [(n, PairMF(m, f)) for n in range(1, 7) for m in range(1, n + 1)
             for f in range(binom2(m) + 1)]
    cases += [(7, PairMF(m, f)) for m in range(1, 5) for f in range(binom2(m) + 1)]
    cases += [(8, PairMF(m, f)) for m, f in
              ((3, 1), (4, 3), (5, 4), (5, 5), (6, 0), (6, 7), (7, 9), (8, 14))]
    for n, pair in cases:
        total = binom2(n)
        assert sorted(_classes(n, 0, total, pair)) == sorted(failing_classes(n, pair)), (n, pair)
        least = least_failures_reference(n, pair)
        report = compute_S_n(n, pair)
        assert report.S == tuple(e for e in range(total + 1) if e not in least), (n, pair)
        extension = least_extension_reference(n, pair)
        assert report.counterexamples == {e: to_graph6(g) for e, g in extension.items()}, (n, pair)


def test_one_vertex_root_is_pruned():
    # every graph has a vertex, which induces (1, 0): nothing fails
    assert list(_classes(1, 0, 0, PairMF(1, 0))) == []
    report = compute_S_n(1, PairMF(1, 0))
    assert (report.S, report.counterexamples) == ((0,), {})
    assert compute_S_n(4, PairMF(1, 0)).S == tuple(range(binom2(4) + 1))


def test_labeled_recount_matches_augmentation():
    for n in (4, 5, 6):
        assert labeled_class_counts(n) == class_counts(n)
    with pytest.raises(GuardError):
        labeled_class_counts(7)


def test_arrows_examples():
    k5 = Graph(5).complement()
    assert arrows(k5, PairMF(3, 3))
    assert not arrows(k5, PairMF(3, 0))
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert arrows(c5, PairMF(4, 3))
    assert arrows(c5, PairMF(3, 1))
    empty6 = Graph(6)
    assert not arrows(empty6, PairMF(3, 1))
    assert not arrows(k5, PairMF(6, 0))  # m > n


def test_arrows_pair_examples():
    assert arrows_pair(3, 3, PairMF(2, 1)).arrows
    verdict = arrows_pair(3, 3, PairMF(2, 0))
    assert not verdict.arrows
    assert verdict.counterexample == Graph(3).complement()
    assert arrows_pair(4, 2, PairMF(2, 1)).arrows
    # a query over all graphs on n < m vertices is refused, not answered
    with pytest.raises(DomainError):
        arrows_pair(3, 3, PairMF(4, 0))
    with pytest.raises(DomainError):
        compute_S_n(5, PairMF(6, 0))


def test_counterexample_is_least_extension_of_a_canonical_form():
    # the parent stream has no order: both callers keep the least failure
    # per e, which must be the reference's.  It is not the least failing
    # canonical form in general: at n = 6 they differ for (4, 3) at e = 5
    # and for (3, 0) at e = 6..9, and at (3, 0), e = 6 it is the larger
    pairs = [PairMF(3, 3), PairMF(4, 3), PairMF(3, 0), PairMF(4, 1)]
    for n, pair in [(5, PairMF(3, 3))] + [(6, pair) for pair in pairs]:
        report = compute_S_n(n, pair)
        least = least_extension_reference(n, pair)
        for e in range(binom2(n) + 1):
            failing = [g for g in enumerate_graphs(n, e) if not arrows(g, pair)]
            verdict = arrows_pair(n, e, pair)
            assert verdict.arrows == (not failing) == (e not in least), (n, e)
            assert verdict.counterexample == least.get(e), (n, e)
            want = to_graph6(least[e]) if e in least else None
            assert report.counterexamples.get(e) == want, (n, e)
    assert not arrows_pair(5, 4, PairMF(3, 3)).arrows  # triangle-free graphs with 4 edges


def test_windowed_counterexamples_match_the_extension_reference():
    # 40 seeded (e, e) windows, 20 at n = 8 and 20 at n = 9, with 3 <= m <= 5
    rng = random.Random(20140708)
    for n in (8, 9):
        for _ in range(20):
            m = rng.randint(3, 5)
            pair = PairMF(m, rng.randint(0, binom2(m)))
            e = rng.randint(0, binom2(n))
            verdict = arrows_pair(n, e, pair)
            want = least_extension_reference(n, pair, e, e).get(e)
            assert (verdict.arrows, verdict.counterexample) == (want is None, want), (n, e, pair)


def test_sweep_labels_only_the_levels_below_the_last(monkeypatch):
    # the last level is decided from forbidden columns: a sweep labels what
    # the stream on n - 1 vertices labels, and nothing more
    pair = PairMF(4, 3)
    _, calls = _labelled_build(monkeypatch, 6, 0, binom2(6), pair)
    below = len(calls)
    compute_S_n(7, pair)
    assert len(calls) - below == below > 0


def test_S_n_closed_forms_for_m_equal_to_n():
    # with m = n the one m-subset is the whole graph, so S_n(n, f) = {f};
    # every class on 8 vertices is a parent of (9, 0), whose sweep took
    # 15.6 s while its last level was labelled
    for n in range(1, 10):
        t0 = time.perf_counter()
        assert compute_S_n(n, PairMF(n, 0)).S == (0,), n
    assert time.perf_counter() - t0 < 5.0
    for n in range(1, 9):
        assert compute_S_n(n, PairMF(n, binom2(n))).S == (binom2(n),), n


def test_S_n_sweep_holds_no_level():
    # the classes on 8 vertices are streamed, not held: a sweep keeps one
    # root-to-leaf path and one failure per e (a held level took 2.3 MB)
    tracemalloc.start()
    try:
        compute_S_n(8, PairMF(4, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_compute_S_n_forced_shapes():
    for n in (5, 6, 7):
        total = binom2(n)
        rep0 = compute_S_n(n, PairMF(2, 0))
        assert rep0.S == tuple(range(0, total))
        assert set(rep0.counterexamples) == {total}
        assert from_graph6(rep0.counterexamples[total]) == Graph(n).complement()
        rep1 = compute_S_n(n, PairMF(2, 1))
        assert rep1.S == tuple(range(1, total + 1))
        assert rep1.sigma_estimate == total / (total + 1)
    with pytest.raises(GuardError):
        compute_S_n(10, PairMF(2, 1))


def test_empty_S_n_at_one_n_says_nothing_about_later_n():
    # S_n of (5, 5) is empty at n = 6, 7 and 9, yet not at n = 8: every
    # graph on 8 vertices with 14 edges induces 5 edges on some 5 vertices
    got = [compute_S_n(n, PairMF(5, 5)).S for n in range(5, 10)]
    assert got == [(5,), (), (), (14,), ()]


def test_compute_S_n_report_invariant_and_chunking():
    rep = compute_S_n(7, PairMF(4, 3))
    for e in range(binom2(7) + 1):
        assert (e in rep.S) == (e not in rep.counterexamples)
    assert compute_S_n(7, PairMF(4, 3)) == rep


def test_complete_graph_never_arrows_independent_pairs():
    for n in range(2, 8):
        kn = Graph(n).complement()
        for m in range(2, n + 1):
            assert not arrows(kn, PairMF(m, 0))


def test_complement_duality_over_small_classes():
    for n in range(1, 7):
        for e in range(binom2(n) + 1):
            for g in enumerate_graphs(n, e):
                gc = g.complement()
                for m in range(1, n + 1):
                    sizes = induced_size_set(g, m)
                    dual = frozenset(binom2(m) - c for c in induced_size_set(gc, m))
                    assert sizes == dual, (n, e, m)


def test_clique_forest_oracle_examples():
    assert clique_forest_oracle(PairMF(5, 7)) is False
    assert clique_forest_oracle(PairMF(4, 3)) is True
    with pytest.raises(GuardError):
        clique_forest_oracle(PairMF(40, 390))


def test_oracle_agrees_with_criterion_exhaustively():
    for m in range(1, 13):
        for f in range(binom2(m) + 1):
            pair = PairMF(m, f)
            search = isinstance(clique_forest_realizable(pair), Realizable)
            assert search == clique_forest_oracle(pair), (m, f)

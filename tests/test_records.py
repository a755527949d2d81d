"""Frozen records: immutability, equality by exact type, hashing, repr,
keyword construction, validation and the methods records carry."""

import copy
import pickle

import pytest

from avoidpairs.bipartite import BipartitePair
from avoidpairs.criterion import Impossible, PairMF
from avoidpairs.errors import DomainError
from avoidpairs.exactarith import FixedPointFrac
from avoidpairs.graphs import Graph
from avoidpairs.pell import PellState
from avoidpairs.witness import WitnessGraph


def test_fields_cannot_be_assigned_added_or_deleted():
    pair = PairMF(3, 2)
    with pytest.raises(AttributeError):
        pair.m = 4
    with pytest.raises(AttributeError):
        pair.extra = 1
    with pytest.raises(AttributeError):
        del pair.f
    assert pair == PairMF(3, 2)


def test_equality_needs_the_exact_type():
    assert Impossible(3, 2) == Impossible(3, 2)
    assert Impossible(3, 2) != Impossible(3, 1)
    assert Impossible(3, 2) != PairMF(3, 2)
    assert Impossible(3, 2) != (3, 2)
    assert (3, 2) != Impossible(3, 2)


def test_equal_records_hash_equally():
    assert hash(PairMF(40, 390)) == hash(PairMF(m=40, f=390))
    assert len({Impossible(5, 4), Impossible(5, 4), Impossible(4, 5)}) == 2


def test_repr_names_the_fields():
    assert repr(Impossible(5, 4)) == "Impossible(L=5, R=4)"
    assert repr(PairMF(40, 390)) == "PairMF(m=40, f=390)"


def test_post_init_validates():
    with pytest.raises(DomainError):
        PairMF(1, 1)
    with pytest.raises(DomainError):
        BipartitePair(0, 0)
    with pytest.raises(TypeError):
        PairMF(3)


def test_keyword_construction_and_fields():
    g = Graph(3)
    w = WitnessGraph(graph=g, clique_vertices=frozenset({0, 1}), girth_part=frozenset({2}),
                     girth_bound=4, complemented=False)
    assert w.graph is g and w.girth_bound == 4 and w.complemented is False
    assert w == WitnessGraph(g, frozenset({0, 1}), frozenset({2}), 4, False)
    assert PairMF(40, 390)._asdict() == {"m": 40, "f": 390}


def test_methods_and_properties_still_work():
    assert float(FixedPointFrac(1, 1)) == 0.5
    assert float(FixedPointFrac(-3, 2)) == -0.75
    assert PellState(0, 3, 1).m == 4
    assert PairMF(4, 1).complement() == PairMF(4, 5)


def test_copy_and_pickle_round_trip():
    pair = PairMF(40, 390)
    assert copy.copy(pair) == pair
    assert copy.deepcopy(pair) == pair
    assert pickle.loads(pickle.dumps(pair)) == pair

import random

import pytest

from hyperlap import (
    BudgetExceededError,
    Walk,
    WalkQuery,
    count_walks,
    cross_check,
    enum_signed_walks,
    enum_walks,
    signed_count,
    walk_sign,
)
from hyperlap.enumeration import InvalidWalkError
from hyperlap.model import Hypergraph
from hyperlap.random_instances import random_cw_level, random_hypergraph


def test_fig1_length_one_walks(fig1):
    walks = enum_walks(fig1, "vertex", 1, 3, 1)
    assert [w.steps for w in walks] == [(1, 2, 3), (1, 7, 3)]


def test_fig1_enumerates_5886(fig1):
    assert len(enum_walks(fig1, "vertex", 1, 3, 4)) == 5886


def test_length_zero_walks(fig1):
    assert enum_walks(fig1, "vertex", 1, 2, 0) == []
    only = enum_walks(fig1, "vertex", 3, 3, 0)
    assert [w.steps for w in only] == [(3,)]


def test_walks_are_lexicographic_and_duplicate_free(fig1):
    walks = enum_walks(fig1, "vertex", 1, 3, 3)
    seqs = [w.steps for w in walks]
    assert seqs == sorted(seqs)
    assert len(seqs) == len(set(seqs))


def test_length_one_count_matches_shared_edges(fig1):
    # exhaustiveness witness: length-1 walks i->j = edges containing both
    for i in range(1, 5):
        for j in range(1, 5):
            shared = sum(1 for e in fig1.edges if i in e and j in e)
            assert len(enum_walks(fig1, "vertex", i, j, 1)) == shared


def test_budget_exceeded(fig1):
    with pytest.raises(BudgetExceededError):
        enum_walks(fig1, "vertex", 1, 3, 4, budget=100)


def test_fig2_example_lower_walk_sign(fig2):
    w = Walk(kind="lower", steps=(1, 2, 4, 1, 6, 3, 5, 3, 6), level=1)
    assert walk_sign(fig2, w) == 1


def test_fig2_example_upper_walk_sign(fig2):
    w = Walk(kind="upper", steps=(1, 4, 2, 5, 3), level=1)
    assert walk_sign(fig2, w) == -1


def test_singleton_walk_sign(fig2):
    assert walk_sign(fig2, Walk(kind="lower", steps=(3,), level=1)) == 1


def test_walk_sign_missing_incidence(fig2):
    # e1^1 is not on the boundary of e1^2
    w = Walk(kind="lower", steps=(1, 1, 2), level=1)
    with pytest.raises(InvalidWalkError):
        walk_sign(fig2, w)


def test_enum_signed_matches_signed_count(fig2):
    for kind, space in (("lower", 6), ("upper", 3)):
        for i in range(1, space + 1):
            for j in range(1, space + 1):
                for k in range(4):
                    pairs = enum_signed_walks(fig2, 1, kind, i, j, k)
                    q = WalkQuery(kind=kind, from_index=i, to_index=j, length=k, level=1)
                    assert sum(s for _, s in pairs) == signed_count(fig2, q).value


def test_signed_length_zero(fig2):
    pairs = enum_signed_walks(fig2, 1, "upper", 2, 2, 0)
    assert [(w.steps, s) for w, s in pairs] == [((2,), 1)]


def test_consecutive_repetition_allowed(fig2):
    # e4^1, e1^2, e4^1 revisits the same 1-cell immediately
    walks = enum_signed_walks(fig2, 1, "lower", 4, 4, 1)
    assert any(w.steps == (4, 1, 4) for w, _ in walks)


def test_sign_multiplicativity(fig2):
    # concatenating walks at a shared junction multiplies signs
    for w1, s1 in enum_signed_walks(fig2, 1, "lower", 1, 4, 2):
        for w2, s2 in enum_signed_walks(fig2, 1, "lower", 4, 6, 1):
            joined = Walk(kind="lower", steps=w1.steps + w2.steps[1:], level=1)
            assert walk_sign(fig2, joined) == s1 * s2


def test_cross_check_fig1(fig1):
    report = cross_check(fig1, 4)
    assert report.ok


def test_cross_check_fig2(fig2):
    report = cross_check(fig2, 3)
    assert report.ok


def test_cross_check_no_edges():
    h = Hypergraph(n=2, edges=())
    report = cross_check(h, 2)
    assert report.ok


def test_cross_check_random_sample():
    rng = random.Random(31)
    for _ in range(5):
        assert cross_check(random_hypergraph(rng), 3).ok
    for _ in range(5):
        assert cross_check(random_cw_level(rng), 3).ok


def test_enum_matches_count_walks_spot(fig1):
    for kind in ("vertex", "edge"):
        space = fig1.n if kind == "vertex" else fig1.m
        rng = random.Random(8)
        for _ in range(10):
            i, j = rng.randint(1, space), rng.randint(1, space)
            k = rng.randint(0, 3)
            q = WalkQuery(kind=kind, from_index=i, to_index=j, length=k)
            assert len(enum_walks(fig1, kind, i, j, k)) == count_walks(fig1, q).value


def test_walk_rendering(fig1):
    w = enum_walks(fig1, "vertex", 1, 3, 1)[0]
    assert w.render(fig1.vertex_labels, fig1.edge_labels) == "v1,e2,v3"


def test_cross_check_rejects_invalid_structures():
    from hyperlap import CWHypergraph
    from hyperlap.model import HyperlapError

    with pytest.raises(HyperlapError, match="strictly increasing"):
        cross_check(Hypergraph(n=2, edges=((1, 1), (2, 1))), 1)
    with pytest.raises(HyperlapError, match="duplicate incidence pair"):
        cross_check(CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1), (1, 1, -1)),)), 2)

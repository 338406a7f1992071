import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hyperlap import cli, enumeration, formats, laplacian, walkcount
from hyperlap.enumeration import InvalidWalkError
from hyperlap.laplacian import _incidence_lists
from hyperlap.model import CWHypergraph, Hypergraph, InvalidStructureError
from random_instances import random_cw, random_cw_level, random_hypergraph


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


def test_enum_walks_rejects_invalid_structure():
    with pytest.raises(InvalidStructureError, match="strictly increasing"):
        enum_walks(Hypergraph(n=2, edges=((1, 1),)), "vertex", 1, 1, 1)


def test_enum_signed_walks_rejects_invalid_structure():
    x = CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1), (1, 1, -1)),))
    with pytest.raises(InvalidStructureError, match="duplicate incidence pair"):
        enum_signed_walks(x, 0, "lower", 1, 1, 1)


def test_budget_counts_every_walk_the_search_visits(fig1):
    # from v1 up to length 1: the walk (1,) plus one per (edge, vertex) step,
    # 12 = the row sum of the even Laplacian's first row, whatever the end
    assert len(enum_walks(fig1, "vertex", 1, 3, 1, budget=13)) == 2
    with pytest.raises(BudgetExceededError, match="13 walks visited from index 1"):
        enum_walks(fig1, "vertex", 1, 3, 1, budget=12)


def test_cross_check_budget_exceeded(fig1):
    with pytest.raises(BudgetExceededError, match="HYPERLAP_BUDGET"):
        cross_check(fig1, 4, budget=1000)


def test_cross_check_random_multi_level():
    rng = random.Random(47)
    for _ in range(20):
        x = random_cw(rng, max_cells=4, max_dim=3)
        report = cross_check(x, 3)
        assert report.ok
        c = x.counts
        assert report.checked == 4 * sum(c[d] ** 2 + c[d + 1] ** 2 for d in range(x.top_dim))


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(1, 4))
    vertex_sets = st.sets(st.integers(1, n), min_size=1).map(lambda e: tuple(sorted(e)))
    return Hypergraph(n=n, edges=tuple(draw(st.lists(vertex_sets, max_size=4))))


@st.composite
def cw_hypergraphs(draw):
    counts = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4))
    levels = []
    for d in range(len(counts) - 1):
        pairs = draw(st.sets(st.tuples(st.integers(1, max(counts[d], 1)), st.integers(1, max(counts[d + 1], 1)))))
        signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(pairs), max_size=len(pairs)))
        levels.append(tuple((i, j, s) for (i, j), s in zip(sorted(pairs), signs)
                            if i <= counts[d] and j <= counts[d + 1]))
    return CWHypergraph(counts=tuple(counts), incidences=tuple(levels))


@settings(max_examples=60, deadline=None)
@given(obj=st.one_of(hypergraphs(), cw_hypergraphs()), kmax=st.integers(1, 3))
def test_cross_check_property(obj, kmax):
    assert cross_check(obj, kmax).ok


def _perturbed(monkeypatch, obj, pick, d=0):
    """Make cross_check read sweeps in which every entry (i, j) of the k-th
    power of the Laplacian of parity `tag` at obj's level d is raised by
    pick(tag, i, j, k) (0 leaves it alone): only the even half-steps, the
    rows, are changed, and the sweeps of every other level are left alone."""
    real = enumeration._half_steps

    def fake(inc, start):
        level = _incidence_lists(obj, d)
        tag = {id(level.by_row): "even", id(level.by_col): "odd"}.get(id(inc.by_row))
        for t, v in enumerate(real(inc, start)):
            if tag is None or t % 2:
                yield v
            else:
                yield [x + pick(tag, start + 1, j, t // 2) for j, x in enumerate(v, start=1)]

    monkeypatch.setattr(enumeration, "_half_steps", fake)


def test_cross_check_reports_one_perturbed_entry(monkeypatch, fig1):
    _perturbed(monkeypatch, fig1, lambda tag, i, j, k: int(tag == "odd" and (i, j, k) == (7, 9, 3)))
    assert cross_check(fig1, 3).mismatches == (("edge", 7, 9, 3, 385, 384),)


def test_cross_check_checked_and_mismatch_order(monkeypatch, fig1):
    _perturbed(monkeypatch, fig1, lambda tag, i, j, k: int((i, j) in ((1, 2), (2, 1), (3, 1))))
    report = cross_check(fig1, 3)
    assert report.checked == 388
    assert [m[:4] for m in report.mismatches] == [
        (kind, i, j, k) for kind in ("vertex", "edge") for k in range(4) for i, j in ((1, 2), (2, 1), (3, 1))
    ]
    assert all(mv == ov + 1 for *_, mv, ov in report.mismatches)


def _raise_fig2_upper_1_3(monkeypatch, fig2):
    # the length-1 upper signed sum from face 1 to face 3 is +1 (REPORT.md)
    _perturbed(monkeypatch, fig2, lambda tag, i, j, k: int(tag == "odd" and (i, j, k) == (1, 3, 1)), d=1)


def test_cross_check_names_the_level_of_a_mismatch(monkeypatch, fig2):
    _raise_fig2_upper_1_3(monkeypatch, fig2)
    assert cross_check(fig2, 2).mismatches == (("upper@d=1", 1, 3, 1, 2, 1),)


def test_cross_check_description(fig1, fig2):
    assert cross_check(fig1, 3).description == "hypergraph n=4 m=9 kmax=3"
    assert cross_check(fig2, 2).description == "cw counts=(4, 6, 3) kmax=2"


def test_check_reports_a_mismatch_with_exit_2(monkeypatch, capsys, fig2):
    _raise_fig2_upper_1_3(monkeypatch, fig2)
    monkeypatch.setattr(formats, "builtin_fixture", lambda name: fig2)
    assert cli.main(["check", "--fixture", "fig2", "--max-length", "2"]) == 2
    assert capsys.readouterr().out == "1 mismatches\n  upper@d=1 1->3 k=1: matrix 2 oracle 1\n"


def test_cross_check_refuses_an_invalid_object_with_no_level():
    with pytest.raises(InvalidStructureError,
                       match=re.escape("invalid structure: dimension 0: negative cell count -1")):
        cross_check(CWHypergraph(counts=(-1,), incidences=()), 1)


def test_listing_builds_the_steps_of_its_own_level_only(monkeypatch, fig2):
    built = []
    real = enumeration._level

    def counted(obj, d):
        built.append(d)
        return real(obj, d)

    monkeypatch.setattr(enumeration, "_level", counted)
    assert len(enum_signed_walks(fig2, 1, "upper", 1, 3, 1)) == 1
    assert built == [1]


def test_long_walks_need_no_recursion():
    # one vertex in one edge: a single walk of every length on each side,
    # 1200 steps deep, far past Python's recursion limit
    report = cross_check(Hypergraph(n=1, edges=((1,),)), 1200)
    assert report.ok
    assert report.checked == 2 * 1201


def test_one_fault_in_the_shared_sweep_reaches_both_routes(monkeypatch, fig1):
    # count and cross_check read Laplacian powers from one half-step generator
    assert enumeration._half_steps is walkcount._half_steps
    real = walkcount._half_steps

    def doubled(inc, start):
        for v in real(inc, start):
            yield [2 * x for x in v]

    monkeypatch.setattr(walkcount, "_half_steps", doubled)
    monkeypatch.setattr(enumeration, "_half_steps", doubled)
    assert count_walks(fig1, WalkQuery("vertex", 1, 3, 4)).value == 4 * 5886
    assert cross_check(fig1, 1).mismatches[0] == ("vertex", 1, 1, 0, 2, 1)


def test_cross_check_needs_no_dense_laplacian(monkeypatch, fig1, fig2):
    def refuse(*args, **kwargs):
        raise AssertionError("cross_check built a dense matrix")

    for name in ("mat_mul", "hypergraph_laplacian", "cw_laplacian"):
        monkeypatch.setattr(laplacian, name, refuse)
    assert cross_check(fig1, 3).ok
    assert cross_check(fig2, 3).ok
    assert cross_check(Hypergraph(n=1, edges=((1,),)), 1200).ok

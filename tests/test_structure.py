"""One structural check for every route: `validate` reports it, and every
entry point raises its first error before computing anything."""

import dataclasses

import pytest

from hyperlap import (
    CWHypergraph,
    Hypergraph,
    Walk,
    WalkQuery,
    builtin_fixture,
    count_walks,
    cross_check,
    cw_laplacian,
    d_incidence,
    enum_signed_walks,
    enum_walks,
    hypergraph_laplacian,
    incidence,
    parse_cw,
    partition_trace,
    serialize,
    signed_count,
    susy_laplacian,
    validate,
    walk_sign,
)
from hyperlap import model
from hyperlap.laplacian import ExactMatrix, _incidence_lists
from hyperlap.enumeration import InvalidWalkError
from hyperlap.model import (IndexOutOfRangeError, InvalidArgumentError, InvalidStructureError,
                            LevelOutOfRangeError)
from hyperlap.walkcount import matrix_power

INVALID_HYPERGRAPHS = [
    (Hypergraph(n=0, edges=()),
     [("error", "vertices", "vertex count must be positive, got 0")]),
    (Hypergraph(n=2, edges=((1, 2), ())),
     [("error", "edge 2", "edge is empty")]),
    (Hypergraph(n=2, edges=((1, 3),)),
     [("error", "edge 1", "vertex index 3 out of range [1..2]")]),
    (Hypergraph(n=2, edges=((2, 1),)),
     [("error", "edge 1", "vertex indices must be strictly increasing")]),
    (Hypergraph(n=2, edges=((1, 2),), vertex_labels=("a",)),
     [("error", "labels", "vertex label count does not match n")]),
    (Hypergraph(n=2, edges=((1, 2),), edge_labels=("a", "b")),
     [("error", "labels", "edge label count does not match m")]),
    (Hypergraph(n=2, edges=((1, 1), (2, 1))),
     [("error", "edge 1", "vertex indices must be strictly increasing"),
      ("error", "edge 2", "vertex indices must be strictly increasing")]),
]

INVALID_CW = [
    # a missing level
    (CWHypergraph(counts=(2, 1, 1), incidences=(((1, 1, 1),),)),
     [("error", "incidences", "need exactly one incidence level per consecutive dimension pair")]),
    (CWHypergraph(counts=(2, -1), incidences=((),)),
     [("error", "dimension 1", "negative cell count -1")]),
    (CWHypergraph(counts=(2, 1), incidences=(((3, 1, 1),),)),
     [("error", "level 0 incidence (3,1)", "0-cell index 3 out of range [1..2]")]),
    (CWHypergraph(counts=(2, 1), incidences=(((1, 2, 1),),)),
     [("error", "level 0 incidence (1,2)", "1-cell index 2 out of range [1..1]")]),
    (CWHypergraph(counts=(2, 1), incidences=(((1, 1, 2),),)),
     [("error", "level 0 incidence (1,1)", "sign must be -1 or +1, got 2")]),
    # a bad sign on level 1, queried at level 0
    (CWHypergraph(counts=(2, 1, 1), incidences=(((1, 1, 1),), ((1, 1, 5),))),
     [("error", "level 1 incidence (1,1)", "sign must be -1 or +1, got 5")]),
    (CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1), (1, 1, -1)),)),
     [("error", "level 0 incidence (1,1)", "duplicate incidence pair")]),
    # a skeleton of a cell that does not exist
    (CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1),),), skeletons={(1, 5): (1,)}),
     [("error", "skeleton of 1-cell 5", "cell does not exist")]),
    (CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1),),), skeletons={(1, 1): ()}),
     [("error", "skeleton of 1-cell 1", "skeleton is empty")]),
    (CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1),),), skeletons={(1, 1): (1, 3)}),
     [("error", "skeleton of 1-cell 1", "vertex index 3 out of range [1..2]")]),
]


def _hypergraph_entry_points(h):
    return [
        lambda: count_walks(h, WalkQuery("vertex", 1, 1, 1)),
        lambda: hypergraph_laplacian(h, "even"),
        lambda: incidence(h),
        lambda: susy_laplacian(h),
        lambda: partition_trace(h, 1.0),
        lambda: enum_walks(h, "vertex", 1, 1, 1),
        lambda: cross_check(h, 1),
    ]


def _cw_entry_points(x):
    return [
        lambda: signed_count(x, WalkQuery("lower", 1, 1, 1, level=0)),
        lambda: cw_laplacian(x, 0, "even"),
        lambda: d_incidence(x, 0),
        lambda: enum_signed_walks(x, 0, "lower", 1, 1, 1),
        lambda: cross_check(x, 1),
    ]


@pytest.mark.parametrize("obj, issues", INVALID_HYPERGRAPHS + INVALID_CW)
def test_validate_pins_each_issue(obj, issues):
    assert [(i.severity, i.location, i.message) for i in validate(obj).issues] == issues


@pytest.mark.parametrize("obj, issues", INVALID_HYPERGRAPHS + INVALID_CW)
def test_every_entry_point_raises_validates_first_error(obj, issues):
    _severity, location, message = issues[0]
    calls = _hypergraph_entry_points(obj) if isinstance(obj, Hypergraph) else _cw_entry_points(obj)
    for call in calls:
        with pytest.raises(InvalidStructureError) as err:
            call()
        assert str(err.value) == f"invalid structure: {location}: {message}"


def test_an_invalid_object_raises_on_every_call_and_keeps_nothing():
    x = INVALID_CW[0][0]
    for _ in range(3):
        with pytest.raises(InvalidStructureError, match="incidence level"):
            signed_count(x, WalkQuery("lower", 1, 1, 1, level=0))
        assert x._views is None


def test_the_lists_are_built_once_per_level():
    h = Hypergraph(n=3, edges=((1, 2), (2, 3)))
    assert _incidence_lists(h) is _incidence_lists(h, 0)
    x = CWHypergraph(counts=(2, 2, 1), incidences=(((1, 1, 1), (2, 1, -1), (1, 2, 1)), ((1, 1, 1), (2, 1, 1))))
    assert _incidence_lists(x, 1) is _incidence_lists(x, 1)
    assert _incidence_lists(x, 0) is _incidence_lists(x, 0)
    assert _incidence_lists(x, 0) is not _incidence_lists(x, 1)


def test_the_structure_is_checked_once_per_object(monkeypatch):
    runs = []
    issues = model._issues

    def counted(obj):
        runs.append(obj)
        return issues(obj)

    monkeypatch.setattr(model, "_issues", counted)
    h = Hypergraph(n=3, edges=((1, 2), (2, 3)))
    values = [count_walks(h, WalkQuery("vertex", 1, 3, k)).value for k in (1, 2, 3)]
    assert values == [0, 1, 4]
    assert len(runs) == 1


def test_the_kept_lists_leave_equality_hash_and_repr_alone():
    h = Hypergraph(n=3, edges=((1, 2), (2, 3)))
    x = CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1), (2, 1, -1)),))
    count_walks(h, WalkQuery("vertex", 1, 1, 2))
    signed_count(x, WalkQuery("lower", 1, 2, 1))
    assert h._views is not None and x._views is not None
    for obj, fresh in ((h, Hypergraph(n=3, edges=((1, 2), (2, 3)))),
                       (x, CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1), (2, 1, -1)),)))):
        assert obj == fresh and hash(obj) == hash(fresh) and repr(obj) == repr(fresh)
        assert dataclasses.replace(obj)._views is None


@pytest.mark.parametrize(
    "call",
    [
        lambda: matrix_power(ExactMatrix(dim=3, entries=((1,),)), 2),
        lambda: ExactMatrix(dim=3, entries=((1,),)).trace(),
        lambda: ExactMatrix(dim=3, entries=((1,),)).is_symmetric(),
    ],
    ids=["matrix_power", "trace", "is_symmetric"],
)
def test_exact_matrix_of_the_wrong_shape_is_refused(call):
    with pytest.raises(InvalidArgumentError, match="entries must be 3 rows of 3"):
        call()


DUPLICATE_PAIR = CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1), (1, 1, -1)),))


def test_each_object_is_checked_once_from_parse_to_enumeration(monkeypatch):
    runs = []
    issues = model._issues

    def counted(obj):
        runs.append(obj)
        return issues(obj)

    monkeypatch.setattr(model, "_issues", counted)
    x = parse_cw(serialize(builtin_fixture("fig2")))
    assert validate(x).ok
    assert signed_count(x, WalkQuery("lower", 1, 6, 4, level=1)).value == 0
    assert cross_check(x, 2).ok and cross_check(x, 2).ok
    assert len(enum_signed_walks(x, 1, "upper", 1, 3, 1)) == 1
    assert runs == [x]


BAD_QUERIES = [
    (WalkQuery("vertex", 1, 1, 1, level=0), InvalidArgumentError, "kind must be one of lower, upper"),
    (WalkQuery("edge", 1, 1, 1, level=9), InvalidArgumentError, "kind must be one of lower, upper"),
    (WalkQuery("lower", 9, 9, -1, level=2), LevelOutOfRangeError, "level 2 out of range [0..1]"),
    (WalkQuery("upper", 4, 9, -1, level=1), IndexOutOfRangeError, "from index 4 out of range [1..3]"),
    (WalkQuery("lower", 1, 7, -1, level=1), IndexOutOfRangeError, "to index 7 out of range [1..6]"),
    (WalkQuery("lower", 1, 6, -1, level=1), InvalidArgumentError, "length must be >= 0"),
]


@pytest.mark.parametrize("q, error, message", BAD_QUERIES)
def test_both_routes_refuse_a_query_with_the_same_first_error(fig2, q, error, message):
    calls = [lambda: signed_count(fig2, q),
             lambda: enum_signed_walks(fig2, q.level, q.kind, q.from_index, q.to_index, q.length)]
    for call in calls:
        with pytest.raises(error) as err:
            call()
        assert str(err.value).startswith(message)


def test_a_query_on_an_invalid_structure_raises_after_the_level_and_before_the_indices():
    with pytest.raises(LevelOutOfRangeError):
        signed_count(DUPLICATE_PAIR, WalkQuery("lower", 9, 9, 1, level=1))
    for call in (lambda: signed_count(DUPLICATE_PAIR, WalkQuery("lower", 9, 9, -1)),
                 lambda: enum_signed_walks(DUPLICATE_PAIR, 0, "lower", 9, 9, -1)):
        with pytest.raises(InvalidStructureError, match="duplicate incidence pair"):
            call()


def test_vertex_and_edge_kinds_are_refused_on_a_cw_hypergraph(fig2):
    with pytest.raises(InvalidArgumentError):
        count_walks(fig2, WalkQuery("vertex", 1, 2, 2))
    with pytest.raises(InvalidArgumentError):
        count_walks(fig2, WalkQuery("lower", 1, 2, 2))
    for kind in ("vertex", "edge"):
        with pytest.raises(InvalidArgumentError):
            enum_walks(fig2, kind, 1, 2, 2)
        with pytest.raises(InvalidArgumentError):
            enum_signed_walks(fig2, 0, kind, 1, 2, 2)


def test_lower_and_upper_on_a_hypergraph_read_level_zero_with_every_sign_plus_one(fig1):
    assert signed_count(fig1, WalkQuery("lower", 1, 3, 4)).value == 5886
    assert signed_count(fig1, WalkQuery("upper", 7, 9, 3)).value == 384
    pairs = enum_signed_walks(fig1, 0, "lower", 1, 3, 1)
    assert [(w.steps, s) for w, s in pairs] == [((1, 2, 3), 1), ((1, 7, 3), 1)]
    for call in (lambda: signed_count(fig1, WalkQuery("lower", 1, 3, 4, level=1)),
                 lambda: enum_signed_walks(fig1, 1, "upper", 1, 1, 1)):
        with pytest.raises(LevelOutOfRangeError, match=r"level 1 out of range \[0..0\]"):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda x: incidence(x),
        lambda x: hypergraph_laplacian(x, "even"),
        lambda x: susy_laplacian(x),
        lambda x: partition_trace(x, 1.0),
    ],
    ids=["incidence", "hypergraph_laplacian", "susy_laplacian", "partition_trace"],
)
def test_hypergraph_only_builders_refuse_a_cw_hypergraph(fig2, call):
    with pytest.raises(InvalidArgumentError, match="applies to a Hypergraph, got a CWHypergraph"):
        call(fig2)


def test_walk_sign_refuses_a_walk_that_ends_on_the_other_tier(fig2):
    for steps in ((1, 2), ()):
        with pytest.raises(InvalidWalkError, match="odd number of steps"):
            walk_sign(fig2, Walk("lower", steps))


def test_walk_sign_raises_validates_first_error():
    with pytest.raises(InvalidStructureError) as err:
        walk_sign(DUPLICATE_PAIR, Walk("lower", (1, 1, 1)))
    assert str(err.value) == "invalid structure: level 0 incidence (1,1): duplicate incidence pair"


def test_walk_sign_checks_the_level_and_refuses_a_hypergraph(fig1, fig2):
    with pytest.raises(LevelOutOfRangeError, match=r"level 2 out of range \[0..1\]"):
        walk_sign(fig2, Walk("lower", (1,), level=2))
    with pytest.raises(InvalidArgumentError, match="applies to a CWHypergraph, got a Hypergraph"):
        walk_sign(fig1, Walk("lower", (1, 2, 3)))

"""One structural check for every route: `validate` reports it, and every
entry point raises its first error before computing anything."""

import dataclasses

import pytest

from hyperlap import (
    CWHypergraph,
    Hypergraph,
    WalkQuery,
    count_walks,
    cross_check,
    cw_laplacian,
    d_incidence,
    enum_signed_walks,
    enum_walks,
    hypergraph_laplacian,
    incidence,
    partition_trace,
    signed_count,
    susy_laplacian,
    validate,
)
from hyperlap import model
from hyperlap.laplacian import ExactMatrix, _incidence_lists
from hyperlap.model import InvalidArgumentError, InvalidStructureError
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

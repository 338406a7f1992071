import pytest

from hyperlap import CWHypergraph, Hypergraph, project_hypergraph, validate
from hyperlap.model import MissingSkeletonError


def test_minimal_hypergraph_validates():
    h = Hypergraph(n=2, edges=((1, 2),))
    assert validate(h).ok


def test_vertex_out_of_range_is_an_error():
    h = Hypergraph(n=4, edges=((1, 5),))
    report = validate(h)
    assert not report.ok
    assert any("out of range" in i.message for i in report.issues)


def test_empty_edge_rejected():
    report = validate(Hypergraph(n=3, edges=((),)))
    assert not report.ok


def test_non_increasing_edge_rejected():
    report = validate(Hypergraph(n=3, edges=((2, 1),)))
    assert not report.ok


def test_cw_duplicate_pair_rejected():
    x = CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1), (1, 1, -1)),))
    report = validate(x)
    assert not report.ok
    assert any("duplicate" in i.message for i in report.issues)


def test_cw_bad_sign_rejected():
    x = CWHypergraph(counts=(2, 1), incidences=(((1, 1, 2),),))
    assert not validate(x).ok


def test_fig2_validates_with_boundary_diagnostic(fig2):
    report = validate(fig2)
    assert report.ok
    # the shipped fixture happens to be a genuine chain complex
    assert report.boundary_squared_zero == {1: True}


def test_nonzero_boundary_square_is_warning_only():
    # two 0-cells, one 1-cell, one 2-cell; composition is -1+1 != 0 at (1,1)
    x = CWHypergraph(
        counts=(1, 1, 1),
        incidences=((((1, 1, 1)),) * 1, (((1, 1, 1)),) * 1),
    )
    report = validate(x)
    assert report.ok  # warning, never an error
    assert report.boundary_squared_zero == {1: False}


def test_project_fig2_gives_fig1(fig1, fig2):
    h = project_hypergraph(fig2)
    assert h.n == fig1.n
    assert h.edges == fig1.edges
    assert validate(h).ok


def test_project_only_zero_cells():
    x = CWHypergraph(counts=(3,), incidences=())
    h = project_hypergraph(x)
    assert h.n == 3 and h.m == 0


def test_project_missing_skeleton(fig2):
    stripped = CWHypergraph(counts=fig2.counts, incidences=fig2.incidences, skeletons=None)
    with pytest.raises(MissingSkeletonError, match="1-cell 1"):
        project_hypergraph(stripped)


def test_project_is_deterministic(fig2):
    assert project_hypergraph(fig2) == project_hypergraph(fig2)


def test_boundary_squared_diagnostic_matches_dense_composition():
    import random

    from hyperlap.laplacian import d_incidence, mat_mul
    from hyperlap.random_instances import random_cw

    rng = random.Random(5)
    seen = set()
    for _ in range(60):
        x = random_cw(rng, max_cells=4, max_dim=3)
        want = {}
        for d in range(1, x.top_dim):
            product = mat_mul(d_incidence(x, d - 1).entries, d_incidence(x, d).entries)
            want[d] = not any(any(row) for row in product)
        assert validate(x).boundary_squared_zero == want
        seen.update(want.values())
    assert seen == {True, False}

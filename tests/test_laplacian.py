import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlap import (
    CWHypergraph,
    Hypergraph,
    cw_laplacian,
    d_incidence,
    hypergraph_laplacian,
    incidence,
    susy_laplacian,
)
from hyperlap.model import LevelOutOfRangeError
from random_instances import random_cw_level, random_hypergraph


@st.composite
def hypergraphs(draw, max_n=5, max_m=6):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    edges = tuple(
        tuple(sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=n))))
        for _ in range(m)
    )
    return Hypergraph(n=n, edges=edges)


@st.composite
def cw_levels(draw, max_lower=5, max_upper=4):
    c_d = draw(st.integers(1, max_lower))
    c_d1 = draw(st.integers(0, max_upper))
    triples = []
    for i in range(1, c_d + 1):
        for j in range(1, c_d1 + 1):
            s = draw(st.sampled_from((0, -1, 1)))
            if s:
                triples.append((i, j, s))
    return CWHypergraph(counts=(c_d, c_d1), incidences=(tuple(triples),))


def test_single_edge_incidence():
    h = Hypergraph(n=2, edges=((1, 2),))
    assert incidence(h).entries == ((1,), (1,))


def test_fig1_incidence_column_sums(fig1):
    inc = incidence(fig1)
    sums = tuple(sum(inc.entries[i][j] for i in range(4)) for j in range(9))
    assert sums == (2, 2, 2, 2, 2, 2, 3, 3, 3)


def test_no_edges_incidence_shape():
    h = Hypergraph(n=3, edges=())
    inc = incidence(h)
    assert inc.rows == 3 and inc.cols == 0


def test_single_edge_laplacians():
    h = Hypergraph(n=2, edges=((1, 2),))
    assert hypergraph_laplacian(h, "even").entries == ((1, 1), (1, 1))
    assert hypergraph_laplacian(h, "odd").entries == ((2,),)


def test_fig1_even_laplacian(fig1):
    even = hypergraph_laplacian(fig1, "even")
    assert even.entries == (
        (5, 2, 2, 3),
        (2, 5, 2, 3),
        (2, 2, 5, 3),
        (3, 3, 3, 6),
    )


def test_fig1_odd_laplacian(fig1):
    odd = hypergraph_laplacian(fig1, "odd")
    assert tuple(odd.entry(j, j) for j in range(1, 10)) == (2, 2, 2, 2, 2, 2, 3, 3, 3)
    assert odd.entry(7, 9) == 2  # |e7 ∩ e9|


def test_fig2_d_incidence(fig2):
    inc = d_incidence(fig2, 1)
    assert (inc.rows, inc.cols) == (6, 3)
    assert inc.entries[5][0] == -1  # e6^1 in e1^2 has negative sign


def test_d_incidence_level_out_of_range(fig2):
    with pytest.raises(LevelOutOfRangeError):
        d_incidence(fig2, 2)


def test_d_incidence_no_upper_cells():
    x = CWHypergraph(counts=(3, 0), incidences=((),))
    inc = d_incidence(x, 0)
    assert inc.rows == 3 and inc.cols == 0


def test_fig2_cw_laplacian_diagonals(fig2):
    odd = cw_laplacian(fig2, 1, "odd")
    assert tuple(odd.entry(j, j) for j in range(1, 4)) == (3, 3, 3)
    even = cw_laplacian(fig2, 1, "even")
    assert tuple(even.entry(i, i) for i in range(1, 7)) == (1, 1, 1, 2, 2, 2)


def test_all_zero_incidence_gives_zero_laplacians():
    x = CWHypergraph(counts=(2, 2), incidences=((),))
    assert cw_laplacian(x, 0, "even").entries == ((0, 0), (0, 0))
    assert cw_laplacian(x, 0, "odd").entries == ((0, 0), (0, 0))


def test_susy_single_edge():
    h = Hypergraph(n=2, edges=((1, 2),))
    assert susy_laplacian(h).entries == ((1, 1, 0), (1, 1, 0), (0, 0, 2))


def test_susy_fig1_trace(fig1):
    susy = susy_laplacian(fig1)
    assert susy.dim == 13
    assert susy.trace() == 42


def test_susy_no_edges():
    h = Hypergraph(n=3, edges=())
    assert susy_laplacian(h).entries == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


@given(hypergraphs())
def test_laplacians_symmetric_and_trace_identity(h):
    even = hypergraph_laplacian(h, "even")
    odd = hypergraph_laplacian(h, "odd")
    assert even.is_symmetric() and odd.is_symmetric()
    assert even.trace() == odd.trace() == sum(len(e) for e in h.edges)


@given(cw_levels())
def test_cw_laplacians_symmetric_and_trace_identity(x):
    even = cw_laplacian(x, 0, "even")
    odd = cw_laplacian(x, 0, "odd")
    assert even.is_symmetric() and odd.is_symmetric()
    assert even.trace() == odd.trace() == len(x.incidences[0])


def test_positive_semidefinite_witness(fig1, fig2):
    rng = random.Random(99)
    mats = [
        hypergraph_laplacian(fig1, "even"),
        hypergraph_laplacian(fig1, "odd"),
        cw_laplacian(fig2, 1, "even"),
        cw_laplacian(fig2, 1, "odd"),
    ]
    for lap in mats:
        for _ in range(1000):
            x = [rng.randint(-10, 10) for _ in range(lap.dim)]
            quad = sum(
                x[i] * lap.entries[i][j] * x[j]
                for i in range(lap.dim)
                for j in range(lap.dim)
            )
            assert quad >= 0


def _permute(seq, perm):
    # perm[i] = new position of old element i (0-based)
    out = [None] * len(seq)
    for old, new in enumerate(perm):
        out[new] = seq[old]
    return tuple(out)


def test_edge_relabeling_covariance(fig1):
    rng = random.Random(4)
    perm = list(range(fig1.m))
    rng.shuffle(perm)
    relabeled = Hypergraph(n=fig1.n, edges=_permute(fig1.edges, perm))
    # even Laplacian unchanged, odd conjugated by the permutation
    assert hypergraph_laplacian(relabeled, "even") == hypergraph_laplacian(fig1, "even")
    odd = hypergraph_laplacian(fig1, "odd")
    odd2 = hypergraph_laplacian(relabeled, "odd")
    for i in range(fig1.m):
        for j in range(fig1.m):
            assert odd2.entries[perm[i]][perm[j]] == odd.entries[i][j]


def test_vertex_relabeling_covariance(fig1):
    perm = [2, 0, 3, 1]  # old vertex v_{i+1} becomes v_{perm[i]+1}
    edges = tuple(tuple(sorted(perm[v - 1] + 1 for v in e)) for e in fig1.edges)
    relabeled = Hypergraph(n=fig1.n, edges=edges)
    assert hypergraph_laplacian(relabeled, "odd") == hypergraph_laplacian(fig1, "odd")
    even = hypergraph_laplacian(fig1, "even")
    even2 = hypergraph_laplacian(relabeled, "even")
    for i in range(fig1.n):
        for j in range(fig1.n):
            assert even2.entries[perm[i]][perm[j]] == even.entries[i][j]

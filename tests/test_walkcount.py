import random

import pytest

from hyperlap import (
    CWHypergraph,
    Hypergraph,
    WalkQuery,
    builtin_fixture,
    count_walks,
    cw_laplacian,
    hypergraph_laplacian,
    matrix_power,
    signed_count,
)
from hyperlap.laplacian import _incidence_lists
from hyperlap.model import HyperlapError, IndexOutOfRangeError, InvalidStructureError
from hyperlap.random_instances import random_cw, random_cw_level, random_hypergraph
from hyperlap.walkcount import _binary_power, _prefers_binary_power, _sparse_steps, power_table


def test_power_zero_is_identity(fig1):
    even = hypergraph_laplacian(fig1, "even")
    p0 = matrix_power(even, 0)
    assert p0.entries == tuple(
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    )


def test_fig1_even_square(fig1):
    p2 = matrix_power(hypergraph_laplacian(fig1, "even"), 2)
    assert p2.entry(1, 1) == 42
    assert p2.entry(1, 4) == 45
    assert p2.entry(4, 4) == 63


def test_fig1_fourth_power_paper_value(fig1):
    p4 = matrix_power(hypergraph_laplacian(fig1, "even"), 4)
    assert p4.entry(1, 3) == 5886


def test_power_table_matches_binary_exponentiation(fig1):
    even = hypergraph_laplacian(fig1, "even")
    table = power_table(even, 5)
    for k in range(6):
        assert table[k].entries == matrix_power(even, k).entries


def test_count_walks_paper_values(fig1):
    q = WalkQuery(kind="vertex", from_index=1, to_index=3, length=4)
    assert count_walks(fig1, q).value == 5886
    q = WalkQuery(kind="edge", from_index=7, to_index=9, length=3)
    assert count_walks(fig1, q).value == 384


def test_count_walks_length_zero(fig1):
    assert count_walks(fig1, WalkQuery("vertex", 2, 2, 0)).value == 1
    assert count_walks(fig1, WalkQuery("vertex", 2, 3, 0)).value == 0


def test_count_walks_bad_index(fig1):
    with pytest.raises(IndexOutOfRangeError, match="5"):
        count_walks(fig1, WalkQuery("vertex", 5, 1, 1))
    with pytest.raises(IndexOutOfRangeError, match="10"):
        count_walks(fig1, WalkQuery("edge", 1, 10, 1))


def test_signed_count_fig2_published_queries(fig2):
    lower = WalkQuery(kind="lower", from_index=1, to_index=6, length=4, level=1)
    assert signed_count(fig2, lower).value == 0
    upper1 = WalkQuery(kind="upper", from_index=1, to_index=3, length=1, level=1)
    assert signed_count(fig2, upper1).value == 1


def test_signed_count_length_zero(fig2):
    q = WalkQuery(kind="lower", from_index=2, to_index=2, length=0, level=1)
    assert signed_count(fig2, q).value == 1


def test_signed_count_bad_level(fig2):
    from hyperlap.model import LevelOutOfRangeError

    with pytest.raises(LevelOutOfRangeError):
        signed_count(fig2, WalkQuery("lower", 1, 1, 1, level=2))


def test_power_trace_identity_fixtures(fig1, fig2):
    even = hypergraph_laplacian(fig1, "even")
    odd = hypergraph_laplacian(fig1, "odd")
    for k in range(1, 7):
        assert matrix_power(even, k).trace() == matrix_power(odd, k).trace()
    for d in (0, 1):
        ce = cw_laplacian(fig2, d, "even")
        co = cw_laplacian(fig2, d, "odd")
        for k in range(1, 7):
            assert matrix_power(ce, k).trace() == matrix_power(co, k).trace()


def test_power_trace_identity_random():
    rng = random.Random(2024)
    for _ in range(25):
        h = random_hypergraph(rng)
        even = hypergraph_laplacian(h, "even")
        odd = hypergraph_laplacian(h, "odd")
        for k in range(1, 7):
            assert matrix_power(even, k).trace() == matrix_power(odd, k).trace()
    for _ in range(25):
        x = random_cw_level(rng)
        even = cw_laplacian(x, 0, "even")
        odd = cw_laplacian(x, 0, "odd")
        for k in range(1, 7):
            assert matrix_power(even, k).trace() == matrix_power(odd, k).trace()


def test_diagonal_monotonicity(fig1):
    # diagonal walk counts can only grow when two steps are appended
    even = hypergraph_laplacian(fig1, "even")
    for i in range(1, 5):
        for k in range(0, 5):
            assert matrix_power(even, k + 2).entry(i, i) >= matrix_power(even, k).entry(i, i)


def test_counts_exceed_machine_word():
    # arbitrary precision: drive a dense instance far past 2^64
    h = Hypergraph(n=5, edges=tuple((1, 2, 3, 4, 5) for _ in range(6)))
    even = hypergraph_laplacian(h, "even")
    value = matrix_power(even, 30).entry(1, 1)
    assert value > 2**64


# ---- the sparse incidence engine: both routes against dense matrix powers

def _dense_incidence(inc):
    rows = [[0] * inc.cols for _ in range(inc.rows)]
    for r, pairs in enumerate(inc.by_row):
        for c, s in pairs:
            rows[r][c] = s
    return rows


def _dense_gram(inc):
    """I.I^t by the textbook triple loop, as the reference."""
    a = _dense_incidence(inc)
    return tuple(
        tuple(sum(a[i][q] * a[j][q] for q in range(inc.cols)) for j in range(inc.rows))
        for i in range(inc.rows)
    )


def _random_levels(seed):
    """(incidence lists, dense Laplacian of the rows, of the columns) for
    seeded random hypergraphs and every level of multi-level CW-hypergraphs."""
    rng = random.Random(seed)
    for _ in range(30):
        h = random_hypergraph(rng, max_n=6, max_m=8)
        yield _incidence_lists(h), hypergraph_laplacian(h, "even"), hypergraph_laplacian(h, "odd")
    for _ in range(30):
        x = random_cw(rng, max_cells=5, max_dim=3)
        for d in range(x.top_dim):
            yield _incidence_lists(x, d), cw_laplacian(x, d, "even"), cw_laplacian(x, d, "odd")


def test_routes_agree_with_dense_powers():
    rng = random.Random(11)
    compared = 0
    for inc, even, odd in _random_levels(7):
        for side, lap in ((inc, even), (inc.transposed(), odd)):
            if side.rows == 0:
                continue
            for k in (0, 1, 2, 7):
                i, j = rng.randrange(side.rows), rng.randrange(side.rows)
                want = matrix_power(lap, k).entries[i][j]
                assert _sparse_steps(side, i, j, k) == want
                assert _binary_power(side, i, j, k) == want
                compared += 1
    assert compared > 400


@pytest.mark.parametrize("kind, i, j", [("vertex", 1, 3), ("edge", 7, 9)])
def test_routes_agree_at_huge_k(kind, i, j):
    inc = _incidence_lists(builtin_fixture("fig1"))
    side = inc if kind == "vertex" else inc.transposed()
    value = _sparse_steps(side, i - 1, j - 1, 300)
    assert value == _binary_power(side, i - 1, j - 1, 300)
    assert value.bit_length() > 1000
    assert count_walks(builtin_fixture("fig1"), WalkQuery(kind, i, j, 300)).value == value


def test_route_rule_picks_binary_power_only_for_tiny_dimension_at_huge_k(fig1):
    inc = _incidence_lists(fig1)
    assert _prefers_binary_power(inc, 4000) and _prefers_binary_power(inc.transposed(), 3000)
    assert not _prefers_binary_power(inc, 4)
    rng = random.Random(3)
    big = _incidence_lists(Hypergraph(n=40, edges=tuple(
        tuple(sorted(rng.sample(range(1, 41), 4))) for _ in range(120))))
    assert not _prefers_binary_power(big, 32)


def test_sparse_laplacians_equal_dense_gram():
    for inc, even, odd in _random_levels(13):
        assert even.entries == _dense_gram(inc)
        assert odd.entries == _dense_gram(inc.transposed())


INVALID_HYPERGRAPH = Hypergraph(n=2, edges=((1, 1), (2, 1)))
DUPLICATE_PAIR = CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1), (1, 1, -1)),))


def test_invalid_structures_rejected_before_either_route():
    with pytest.raises(InvalidStructureError, match="duplicate"):
        count_walks(INVALID_HYPERGRAPH, WalkQuery("vertex", 1, 1, 1))
    with pytest.raises(InvalidStructureError, match="duplicate"):
        signed_count(DUPLICATE_PAIR, WalkQuery("lower", 1, 1, 1, level=0))
    with pytest.raises(InvalidStructureError, match="sign"):
        signed_count(CWHypergraph(counts=(2, 1), incidences=(((1, 1, 2),),)),
                     WalkQuery("lower", 1, 1, 1, level=0))
    with pytest.raises(InvalidStructureError, match="out of range"):
        count_walks(Hypergraph(n=2, edges=((1, 3),)), WalkQuery("vertex", 1, 1, 1))


def test_negative_length_is_an_argument_error(fig1):
    with pytest.raises(HyperlapError, match="length"):
        count_walks(fig1, WalkQuery("vertex", 1, 1, -1))
    with pytest.raises(ValueError, match="length"):
        count_walks(fig1, WalkQuery("vertex", 1, 1, -1))

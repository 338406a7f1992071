import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hyperlap import walkcount
from hyperlap.laplacian import _incidence_lists
from hyperlap.model import HyperlapError, IndexOutOfRangeError, InvalidStructureError
from random_instances import random_cw, random_cw_level, random_hypergraph
from hyperlap.walkcount import _binary_power, _prefers_binary_power, _sparse_steps


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
    shapes = {"rows < cols": 0, "rows > cols": 0, "signed": 0}
    for inc, even, odd in _random_levels(7):
        for side, lap in ((inc, even), (inc.transposed(), odd)):
            if side.rows == 0:
                continue
            shapes["rows < cols"] += side.rows < side.cols
            shapes["rows > cols"] += side.rows > side.cols
            shapes["signed"] += any(s < 0 for pairs in side.by_row for _, s in pairs)
            for k in (0, 1, 2, 3, 4, 7, 8, 31, 32):
                power = matrix_power(lap, k).entries
                a = rng.randrange(side.rows)
                pairs = [(a, a)]
                if side.rows > 1:
                    pairs.append((a, rng.choice([b for b in range(side.rows) if b != a])))
                for i, j in pairs:
                    want = power[i][j]
                    assert _sparse_steps(side, i, j, k) == want
                    assert _binary_power(side, i, j, k) == want
                    compared += 1
    assert compared > 400
    assert min(shapes.values()) > 20, shapes


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


@st.composite
def walk_queries(draw):
    """A small hypergraph or signed one-level CW-hypergraph, and a query on
    it of a kind whose side is not empty."""
    lower, upper = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    pairs = [(i, j) for i in range(1, lower + 1) for j in range(1, upper + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    if draw(st.booleans()):
        edges = tuple(tuple(sorted(i for i, c in chosen if c == j)) for j in range(1, upper + 1))
        obj = Hypergraph(n=lower, edges=tuple(e for e in edges if e))
        kinds = {"vertex": obj.n, "edge": obj.m}
    else:
        signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=len(chosen), max_size=len(chosen)))
        obj = CWHypergraph(counts=(lower, upper),
                           incidences=(tuple((i, j, s) for (i, j), s in zip(chosen, signs)),))
        kinds = {"lower": lower, "upper": upper}
    kind = draw(st.sampled_from(sorted(k for k, size in kinds.items() if size)))
    size = kinds[kind]
    i, j = draw(st.integers(1, size)), draw(st.integers(1, size))
    return obj, WalkQuery(kind, i, j, draw(st.integers(0, 12)))


@settings(max_examples=200, deadline=None)
@given(walk_queries())
def test_queries_equal_dense_power_entries(case):
    obj, q = case
    if q.kind in ("vertex", "edge"):
        lap = hypergraph_laplacian(obj, "even" if q.kind == "vertex" else "odd")
        value = count_walks(obj, q).value
    else:
        lap = cw_laplacian(obj, 0, "even" if q.kind == "lower" else "odd")
        value = signed_count(obj, q).value
    assert value == matrix_power(lap, q.length).entry(q.from_index, q.to_index)


def test_binary_power_squares_to_half_the_power_without_mat_mul(fig1, monkeypatch):
    squarings = []
    product = walkcount._sym_product

    def counted(p, q):
        squarings.append(p is q)
        return product(p, q)

    def forbidden(*args):
        raise AssertionError("mat_mul called")

    monkeypatch.setattr(walkcount, "_sym_product", counted)
    monkeypatch.setattr(walkcount, "mat_mul", forbidden)
    monkeypatch.setattr("hyperlap.laplacian.mat_mul", forbidden)
    inc = _incidence_lists(fig1)
    assert _prefers_binary_power(inc, 4000)
    value = count_walks(fig1, WalkQuery("vertex", 1, 3, 4000)).value
    assert sum(squarings) == (2000).bit_length() - 1
    monkeypatch.undo()
    assert value == _sparse_steps(inc, 0, 2, 4000)


@pytest.mark.parametrize("i, j, sweeps", [(2, 2, 1), (0, 2, 2)])
def test_sparse_steps_sweeps_once_on_the_diagonal(fig1, monkeypatch, i, j, sweeps):
    calls = []
    sweep = walkcount._half_steps

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(walkcount, "_half_steps", counted)
    inc = _incidence_lists(fig1)
    assert _sparse_steps(inc, i, j, 9) == matrix_power(hypergraph_laplacian(fig1, "even"), 9).entries[i][j]
    assert len(calls) == sweeps


def test_sparse_laplacians_equal_dense_gram():
    for inc, even, odd in _random_levels(13):
        assert even.entries == _dense_gram(inc)
        assert odd.entries == _dense_gram(inc.transposed())


INVALID_HYPERGRAPH = Hypergraph(n=2, edges=((1, 1), (2, 1)))
DUPLICATE_PAIR = CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1), (1, 1, -1)),))


def test_invalid_structures_rejected_before_either_route():
    with pytest.raises(InvalidStructureError, match="strictly increasing"):
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


@pytest.mark.parametrize("h, message", [
    (Hypergraph(n=2, edges=((1, 2), ())), "empty"),
    (Hypergraph(n=2, edges=((2, 1),)), "strictly increasing"),
    (Hypergraph(n=0, edges=()), "vertex count"),
    (Hypergraph(n=2, edges=((1, 2),), vertex_labels=("a",)), "label count"),
    (Hypergraph(n=2, edges=((1, 2),), edge_labels=("a", "b")), "label count"),
])
def test_builder_rejects_what_validate_rejects(h, message):
    from hyperlap import validate

    assert not validate(h).ok
    with pytest.raises(InvalidStructureError, match=message):
        count_walks(h, WalkQuery("vertex", 1, 1, 1))
    with pytest.raises(InvalidStructureError, match=message):
        hypergraph_laplacian(h, "odd")

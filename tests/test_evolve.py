import cmath
import collections
import dataclasses
import math
import pickle
import random

import numpy as np
import pytest

from hyperlap import (
    Hypergraph,
    evolution_operator,
    evolve_state,
    hypergraph_laplacian,
    partition_trace,
    susy_laplacian,
)
from hyperlap import laplacian
from hyperlap.evolve import NotSymmetricError, _row_sum_bound, _smaller_side, format_complex
from hyperlap.laplacian import ExactMatrix, _incidence_lists
from hyperlap.model import HyperlapError, InvalidArgumentError
from random_instances import random_hypergraph


def test_theta_zero_is_exact_identity(fig1):
    u = evolution_operator(susy_laplacian(fig1), 0.0)
    assert np.array_equal(u, np.eye(13, dtype=complex))


def test_scalar_exponential():
    m = ExactMatrix(dim=1, entries=((1,),))
    u = evolution_operator(m, np.pi)
    assert abs(u[0, 0] - (-1)) < 1e-12


def test_non_symmetric_rejected():
    m = ExactMatrix(dim=2, entries=((0, 1), (0, 0)))
    with pytest.raises(NotSymmetricError):
        evolution_operator(m, 0.5)


@pytest.mark.parametrize("theta", [0.01, 0.1, 1.0, 10.0, 1e6, 1e10])
def test_unitarity(fig1, theta):
    u = evolution_operator(susy_laplacian(fig1), theta)
    assert np.abs(u @ u.conj().T - np.eye(13)).max() < 1e-10


def test_composition(fig1):
    susy = susy_laplacian(fig1)
    u = evolution_operator(susy, 0.3) @ evolution_operator(susy, 0.7)
    assert np.abs(evolution_operator(susy, 1.0) - u).max() < 1e-9


def test_small_theta_series_consistency(fig1):
    susy = susy_laplacian(fig1)
    delta = np.array(susy.entries, dtype=float)
    norm = np.abs(delta).sum(axis=1).max()
    for theta in (0.001, 0.005, 0.01):
        u = evolution_operator(susy, theta)
        second_order = (
            np.eye(13) - 1j * theta * delta - theta**2 * (delta @ delta) / 2
        )
        assert np.abs(u - second_order).max() < norm**3 * theta**3


def test_evolve_state_identity(fig1):
    psi = np.arange(13, dtype=complex)
    out = evolve_state(np.eye(13, dtype=complex), psi)
    assert np.array_equal(out, psi)


def test_evolve_state_preserves_norm(fig1):
    u = evolution_operator(susy_laplacian(fig1), 0.1)
    psi = np.zeros(13, dtype=complex)
    psi[0] = 1
    assert abs(np.linalg.norm(evolve_state(u, psi)) - 1) < 1e-10


def test_evolve_state_dimension_mismatch():
    with pytest.raises(HyperlapError, match="mismatch"):
        evolve_state(np.eye(3, dtype=complex), np.zeros(4, dtype=complex))


def test_partition_trace_theta_zero(fig1):
    assert partition_trace(fig1, 0.0) == 13


def test_partition_trace_single_edge_closed_form():
    h = Hypergraph(n=2, edges=((1, 2),))
    for theta in (0.1, 0.7, 2.0):
        expected = 1 + 2 * cmath.exp(-2j * theta)
        assert abs(partition_trace(h, theta) - expected) < 1e-10


def test_partition_trace_block_additivity(fig1):
    # trace over the full direct sum equals the sum of the block traces
    theta = 0.05
    full = np.trace(evolution_operator(susy_laplacian(fig1), theta))
    assert abs(partition_trace(fig1, theta) - full) < 1e-10
    rng = random.Random(9)
    cases = [random_hypergraph(rng, 7, 9) for _ in range(30)] + [
        Hypergraph(n=5, edges=((1, 2), (2, 3, 4))),  # n > m, vertex 5 isolated
        Hypergraph(n=2, edges=((1,), (1, 2), (2,))),  # n < m
        Hypergraph(n=3, edges=()),  # m = 0
        fig1,
    ]
    for h in cases:
        susy = susy_laplacian(h)
        for theta in (-2.5, 0.05, 0.7, 3.0, 40.0):
            u = evolution_operator(susy, theta)
            # the blocks never mix, exactly: the CLI prints them as 0+0i
            assert not u[: h.n, h.n :].any() and not u[h.n :, : h.n].any()
            assert abs(partition_trace(h, theta) - np.trace(u)) < 1e-10


def test_format_complex():
    assert format_complex(1 + 2j) == "1+2i"
    assert format_complex(-0.5 - 0.25j) == "-0.5-0.25i"
    assert format_complex(complex(-0.0, 0.0)) == "0+0i"


def _three_part_format(z: complex) -> str:
    re = f"{z.real + 0.0:.12g}"
    im = f"{abs(z.imag):.12g}"
    sign = "-" if z.imag < 0 else "+"
    return f"{re}{sign}{im}i"


def test_format_complex_matches_the_three_part_formula():
    parts = (0.0, -0.0, 1.5, -1.5, 1e-300, -1e-300, 1e300, -1e300, 2 / 3, -1 / 3,
             float("inf"), float("-inf"))
    for re in parts:
        for im in parts:
            z = complex(re, im)
            for value in (z, np.complex128(z)):
                assert format_complex(value) == _three_part_format(z)
    assert format_complex(complex(0.0, -0.0)) == "0+0i"
    assert format_complex(complex(1e300, -1e-300)) == "1e+300-1e-300i"
    assert format_complex(complex(float("-inf"), float("-inf"))) == "-inf-infi"


@pytest.mark.parametrize("theta", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_theta_rejected(fig1, theta):
    with pytest.raises(HyperlapError, match="finite"):
        evolution_operator(susy_laplacian(fig1), theta)
    with pytest.raises(HyperlapError, match="finite"):
        partition_trace(fig1, theta)


@pytest.mark.parametrize("theta", [1e15, 1e100, 1e300, 1e307, 1.7e308])
def test_overflowing_theta_rejected(fig1, theta):
    with pytest.raises(HyperlapError, match="too large"):
        evolution_operator(susy_laplacian(fig1), theta)
    with pytest.raises(ValueError, match="too large"):
        partition_trace(fig1, theta)


def test_entries_past_the_double_range_rejected():
    # theta is tiny enough to pass the phase guard; the entry cannot become a float
    with pytest.raises(HyperlapError, match="too large for double precision"):
        evolution_operator(ExactMatrix(dim=1, entries=((10**320,),)), 1e-310)
    # each entry is a double, but the eigenvalue 2e308 is not
    with pytest.raises(ValueError, match="too large for double precision"):
        evolution_operator(ExactMatrix(dim=2, entries=((10**308, 10**308), (10**308, 10**308))), 1e-310)
    u = evolution_operator(ExactMatrix(dim=1, entries=((10**300,),)), 1e-310)
    assert abs(u[0, 0] - cmath.exp(-1e-10j)) < 1e-15


@pytest.mark.parametrize(
    "call",
    [
        lambda: partition_trace(Hypergraph(n=2, edges=((1, 2),)), 10**400),
        lambda: evolution_operator(ExactMatrix(dim=1, entries=((1,),)), 10**400),
        lambda: evolution_operator(ExactMatrix(dim=3, entries=((1,),)), 0.5),
        lambda: evolution_operator(ExactMatrix(dim=2, entries=((1, 2), (2,))), 0.5),
        lambda: evolution_operator(ExactMatrix(dim=0, entries=((),)), 0.5),
    ],
    ids=["trace-int-theta", "operator-int-theta", "too-few-rows", "ragged", "too-many-rows"],
)
def test_malformed_input_is_an_invalid_argument(call):
    with pytest.raises(InvalidArgumentError):
        call()


_SHAPED_CASES = [
    Hypergraph(n=5, edges=((1, 2), (2, 3, 4))),  # n > m, vertex 5 isolated
    Hypergraph(n=2, edges=((1,), (1, 2), (2,))),  # n < m
    Hypergraph(n=3, edges=()),  # m = 0
    Hypergraph(n=4, edges=((1, 2), (1, 2), (3, 4), (3, 4), (1, 2, 3, 4))),  # n < m, Gram of rank 2
]


def _gram_route_cases():
    rng = random.Random(15)
    return [random_hypergraph(rng, 12, 14) for _ in range(200)] + _SHAPED_CASES


def _shapes(h):
    """The input shapes the Gram route must cover, as flags for h."""
    gram = np.array(hypergraph_laplacian(h, "even" if h.n <= h.m else "odd").entries, dtype=float)
    covered = set().union(*h.edges)
    return {
        "n < m": h.n < h.m,
        "n > m": h.n > h.m,
        "m = 0": h.m == 0,
        "isolated vertex": len(covered) < h.n,
        "rank-deficient Gram": 0 < min(h.n, h.m) and np.linalg.matrix_rank(gram) < min(h.n, h.m),
    }


def test_gram_route_matches_the_generic_route(fig1):
    seen = collections.Counter()
    for h in _gram_route_cases() + [fig1]:
        seen.update(shape for shape, hit in _shapes(h).items() if hit)
        susy = susy_laplacian(h)
        generic = ExactMatrix(dim=susy.dim, entries=susy.entries)
        for theta in (-2.5, 0.05, 3.0, 40.0):
            assert np.abs(evolution_operator(susy, theta) - evolution_operator(generic, theta)).max() < 1e-12
    assert len(seen) == 5, seen
    assert seen["n < m"] > 20 and seen["n > m"] > 20 and seen["rank-deficient Gram"] > 20, seen


@pytest.mark.parametrize("theta", [1e6, 1e10])
def test_gram_route_is_unitary_with_exact_zero_blocks(fig1, theta):
    for h in _gram_route_cases() + [fig1]:
        u = evolution_operator(susy_laplacian(h), theta)
        assert np.abs(u @ u.conj().T - np.eye(h.n + h.m)).max() < 1e-10
        assert not u[: h.n, h.n :].any() and not u[h.n :, : h.n].any()


def test_susy_matrix_equality_hash_and_repr_ignore_the_incidence(fig1):
    susy = susy_laplacian(fig1)
    plain = ExactMatrix(dim=susy.dim, entries=susy.entries, tag="susy")
    assert susy._incidence is not None and plain._incidence is None
    assert susy == plain and hash(susy) == hash(plain) and repr(susy) == repr(plain)
    assert "_incidence" not in repr(susy)


def _eigh_shapes(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh

    def counting(a):
        shapes.append(np.shape(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return shapes


def test_replace_drops_the_incidence_and_takes_the_generic_route(fig1, monkeypatch):
    susy = susy_laplacian(fig1)
    copy = dataclasses.replace(susy, entries=susy.entries)
    assert copy == susy and copy._incidence is None
    shapes = _eigh_shapes(monkeypatch)
    u = evolution_operator(copy, 0.7)
    assert shapes == [(13, 13)]
    assert np.abs(u - evolution_operator(susy, 0.7)).max() < 1e-12


def test_susy_operator_is_one_eigh_of_the_smaller_gram(fig1, monkeypatch):
    shapes = _eigh_shapes(monkeypatch)
    for h in _SHAPED_CASES + [fig1]:
        shapes.clear()
        evolution_operator(susy_laplacian(h), 0.7)
        s = min(h.n, h.m)
        assert shapes == [(s, s)], (h, shapes)


def _dense_rho(entries):
    return max((sum(map(abs, row)) for row in entries), default=0)


def test_rho_from_the_lists_is_the_dense_largest_row_sum(fig1):
    for h in _gram_route_cases() + [fig1]:
        inc = _incidence_lists(h)
        assert _row_sum_bound(inc, inc.transposed()) == _dense_rho(susy_laplacian(h).entries), h
        smaller = hypergraph_laplacian(h, "even" if h.n <= h.m else "odd")
        assert _row_sum_bound(_smaller_side(inc)[0]) == _dense_rho(smaller.entries), h


def _guard_outcome(m, theta):
    try:
        evolution_operator(m, theta)
    except InvalidArgumentError as exc:
        return str(exc)
    return None


def test_guard_accepts_and_rejects_alike_on_both_routes_at_its_edge(fig1):
    outcomes = collections.Counter()
    for h in _gram_route_cases() + [fig1]:
        susy = susy_laplacian(h)
        generic = ExactMatrix(dim=susy.dim, entries=susy.entries)
        rho = _dense_rho(susy.entries)
        if rho == 0:
            continue
        edge = 2**52 / rho
        for theta in (edge, math.nextafter(edge, 0), -edge):
            got = _guard_outcome(susy_laplacian(h), theta)
            assert got == _guard_outcome(generic, theta), (h, theta)
            outcomes[got is None] += 1
    assert outcomes[True] > 20 and outcomes[False] > 20, outcomes


def test_susy_route_does_no_dense_work_and_builds_no_entries(fig1, monkeypatch):
    def refuse(*_args):
        raise AssertionError("dense work on the susy route")

    monkeypatch.setattr(ExactMatrix, "is_symmetric", refuse)
    monkeypatch.setattr(laplacian, "_row_square", refuse)
    for h in _SHAPED_CASES + [fig1]:
        susy = susy_laplacian(h)
        for theta in (0.0, 0.7, -3.0):
            evolution_operator(susy, theta)
        partition_trace(h, 0.7)
        with pytest.raises(InvalidArgumentError, match="finite"):
            evolution_operator(susy, float("nan"))
        assert "entries" not in vars(susy)


def test_susy_entries_are_built_on_first_read_and_then_kept(fig1):
    plain = ExactMatrix(dim=13, entries=susy_laplacian(fig1).entries, tag="susy")
    reads = [
        lambda s: s == plain,
        lambda s: plain == s,
        lambda s: hash(s) == hash(plain),
        lambda s: repr(s) == repr(plain),
        lambda s: dataclasses.replace(s) == plain,
        lambda s: s.trace() == 42 and s.entry(1, 1) == plain.entry(1, 1),
        lambda s: s.is_symmetric(),
    ]
    for read in reads:
        susy = susy_laplacian(fig1)
        assert "entries" not in vars(susy)
        assert read(susy)
        assert "entries" in vars(susy) and susy.entries == plain.entries
    copy = pickle.loads(pickle.dumps(susy_laplacian(fig1)))
    assert "entries" not in vars(copy) and copy == plain
    with pytest.raises(AttributeError, match="no_such_name"):
        susy_laplacian(fig1).no_such_name
    with pytest.raises(AttributeError, match="no_such_name"):
        plain.no_such_name

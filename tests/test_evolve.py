import cmath
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
from hyperlap.evolve import NotSymmetricError, format_complex
from hyperlap.laplacian import ExactMatrix
from hyperlap.model import HyperlapError
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

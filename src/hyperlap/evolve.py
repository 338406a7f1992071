"""Unitary evolution exp(-i*theta*Delta) on the supersymmetric Laplacian.

theta stands in for t/hbar. Double precision on purpose: the exponential is
transcendental, so correctness is pinned by unitarity / composition
tolerances rather than exactness.
"""

from __future__ import annotations

import math

import numpy as np

from .laplacian import ExactMatrix, hypergraph_laplacian
from .model import Hypergraph, HyperlapError, InvalidArgumentError


class NotSymmetricError(HyperlapError):
    pass


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated Taylor
    series on the scaled matrix (target max-norm accuracy ~1e-13)."""
    n = a.shape[0]
    if n == 0:
        return a.copy()
    norm = np.abs(a).sum(axis=1).max()
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    b = a * 2.0**-s if s else a
    result = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    for k in range(1, 40):
        term = term @ b / k
        result = result + term
        if np.abs(term).max() < 1e-18:
            break
    for _ in range(s):
        result = result @ result
    return result


def evolution_operator(m: ExactMatrix, theta: float) -> np.ndarray:
    """U(theta) = exp(-i*theta*m); unitary because m is symmetric real."""
    if not math.isfinite(theta):
        raise InvalidArgumentError(f"theta must be finite, got {theta}")
    if not m.is_symmetric():
        raise NotSymmetricError("evolution requires a symmetric matrix")
    if theta == 0:
        return np.eye(m.dim, dtype=complex)
    # a huge theta overflows theta*Delta or the squaring loop: reject it, never print nan
    with np.errstate(over="ignore", invalid="ignore"):
        a = -1j * theta * np.array(m.entries, dtype=float)
        u = _expm(a) if np.isfinite(a).all() else a
    if not np.isfinite(u).all():
        raise InvalidArgumentError(f"theta={theta} is too large: exp(-i*theta*Delta) overflows double precision")
    return u


def evolve_state(u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply the evolution operator to a state vector."""
    psi = np.asarray(psi, dtype=complex)
    if u.shape[1] != psi.shape[0]:
        raise HyperlapError(
            f"dimension mismatch: operator is {u.shape[0]}x{u.shape[1]}, state has {psi.shape[0]}"
        )
    return u @ psi


def partition_trace(h: Hypergraph, theta: float) -> complex:
    """trace(exp(-i*theta*Delta+)) + trace(exp(-i*theta*Delta-)): the scalar
    summary of the evolution operator on the direct sum, computed blockwise."""
    even = evolution_operator(hypergraph_laplacian(h, "even"), theta)
    odd = evolution_operator(hypergraph_laplacian(h, "odd"), theta)
    return complex(np.trace(even) + np.trace(odd))


def format_complex(z: complex, digits: int = 12) -> str:
    """`a+bi` with the given number of significant digits."""
    re = f"{z.real:.{digits}g}"
    im = f"{abs(z.imag):.{digits}g}"
    sign = "-" if z.imag < 0 else "+"
    return f"{re}{sign}{im}i"

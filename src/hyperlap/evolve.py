"""Unitary evolution exp(-i*theta*Delta) on the supersymmetric Laplacian.

theta stands in for t/hbar. Double precision on purpose: the exponential is
transcendental, so correctness is pinned by unitarity / composition
tolerances rather than exactness. Delta is real symmetric, so U(theta) =
V.diag(exp(-i*theta*lambda)).V^t from one `eigh` (the "eigenvectors" method
of Moler and Van Loan, 2003), unitary to rounding at every theta. The phase
error grows like |theta|*rho*2^-53, rho being the largest absolute row sum of
Delta (a bound on every |lambda|), so theta is rejected once |theta|*rho
reaches 2^52, where neighbouring doubles near theta*lambda lie >= 1 rad apart.
"""

from __future__ import annotations

import math

import numpy as np

from .laplacian import ExactMatrix, _incidence_lists, _row_square
from .model import Hypergraph, HyperlapError, InvalidArgumentError

_PHASE_LIMIT = 2**52


class NotSymmetricError(HyperlapError):
    pass


def _check_theta(theta: float, rows) -> None:
    """Reject a non-finite theta, and one whose phases double precision
    cannot resolve; |theta|*rho is compared in integers, so no entry meets a
    float."""
    if not math.isfinite(theta):
        raise InvalidArgumentError(f"theta must be finite, got {theta}")
    rho = max((sum(map(abs, row)) for row in rows), default=0)
    num, den = abs(theta).as_integer_ratio()
    if num * rho >= _PHASE_LIMIT * den:
        raise InvalidArgumentError(
            f"theta={theta} is too large: |theta| times the eigenvalue bound {rho} reaches 2**52, "
            "past which exp(-i*theta*lambda) has no resolved phase"
        )


def evolution_operator(m: ExactMatrix, theta: float) -> np.ndarray:
    """U(theta) = exp(-i*theta*m); unitary because m is symmetric real."""
    _check_theta(theta, m.entries)
    if not m.is_symmetric():
        raise NotSymmetricError("evolution requires a symmetric matrix")
    if theta == 0:
        return np.eye(m.dim, dtype=complex)
    lam, v = np.linalg.eigh(np.array(m.entries, dtype=float).reshape(m.dim, m.dim))
    return (v * np.exp(-1j * theta * lam)) @ v.T


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
    summary of the evolution operator on the direct sum. I.I^t and I^t.I share
    their nonzero eigenvalues, so it is 2*sum(exp(-i*theta*lambda)) + |n-m|
    over the smaller Gram's eigenvalues; a zero one adds 1 on each side."""
    inc = _incidence_lists(h)
    side = inc if inc.rows <= inc.cols else inc.transposed()
    gram = _row_square(side)
    _check_theta(theta, gram)
    lam = np.linalg.eigvalsh(np.array(gram, dtype=float).reshape(side.rows, side.rows))
    return complex(2 * np.exp(-1j * theta * lam).sum() + abs(inc.rows - inc.cols))


def format_complex(z: complex, digits: int = 12) -> str:
    """`a+bi` with the given number of significant digits; a signed zero
    prints as 0."""
    re = f"{z.real + 0.0:.{digits}g}"
    im = f"{abs(z.imag):.{digits}g}"
    sign = "-" if z.imag < 0 else "+"
    return f"{re}{sign}{im}i"

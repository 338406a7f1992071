"""Unitary evolution exp(-i*theta*Delta) on the supersymmetric Laplacian.

theta stands in for t/hbar. Double precision on purpose: the exponential is
transcendental, so correctness is pinned by unitarity / composition
tolerances rather than exactness. A symmetric real matrix gets U(theta) =
V.diag(exp(-i*theta*lambda)).V^t from one `eigh` (the "eigenvectors" method
of Moler and Van Loan, 2003), unitary to rounding at every theta.

The supersymmetric Laplacian is the square of the supercharge
Q = [[0, I], [I^t, 0]], Delta = Q^2 = I.I^t (+) I^t.I, so a matrix from
`susy_laplacian` takes a shorter route. With A the smaller side of I (s x t,
s <= t) and A.A^t = V.diag(lambda).V^t from one s x s `eigh`, the columns of
W = A^t.V are the other block's eigenvectors scaled by sqrt(lambda): the small
block is V.diag(exp(-i*theta*lambda)).V^t and the large one
1 + W.diag(phi).W^t, with phi(lambda) = expm1(-i*theta*lambda)/lambda, the
first phi-function of exponential integrators, and phi(0) = -i*theta, its
limit (that column of W is zero). The blocks never mix, so the rest of U is
exact zeros (Golub and Van Loan, Matrix Computations, on the SVD).

The phase error grows like |theta|*rho*2^-53, rho being the largest absolute
row sum of Delta (a bound on every |lambda|), so theta is rejected once
|theta|*rho reaches 2^52, where neighbouring doubles near theta*lambda lie
>= 1 rad apart; both routes keep that guard. The generic route reads rho off
the entries; the Gram route, which never reads them, off the incidence lists:
row a of I.I^t sums |c| over the edges c at a, every entry being >= 0.
"""

from __future__ import annotations

import math

import numpy as np

from .laplacian import ExactMatrix, _Incidence, _incidence_lists
from .model import Hypergraph, HyperlapError, InvalidArgumentError, _expect

_PHASE_LIMIT = 2**52
_FLOAT_MAX = int(np.finfo(float).max)


class NotSymmetricError(HyperlapError):
    pass


def _check_theta(theta: float, rho: int) -> None:
    """Reject a non-finite theta, an eigenvalue bound rho past the double
    range, and a theta whose phases double precision cannot resolve; rho and
    |theta|*rho are compared in integers, so rho meets no float before it passes."""
    try:
        finite = math.isfinite(theta)
    except OverflowError:  # an int past the double range
        raise InvalidArgumentError("theta is too large: it is past the double range") from None
    if not finite:
        raise InvalidArgumentError(f"theta must be finite, got {theta}")
    if rho > _FLOAT_MAX:
        raise InvalidArgumentError(
            f"entries are too large for double precision: the eigenvalue bound has {rho.bit_length()} bits"
        )
    num, den = abs(theta).as_integer_ratio()
    if num * rho >= _PHASE_LIMIT * den:
        raise InvalidArgumentError(
            f"theta={theta} is too large: |theta| times the eigenvalue bound {rho} reaches 2**52, "
            "past which exp(-i*theta*lambda) has no resolved phase"
        )


def _row_sum_bound(*sides: _Incidence) -> int:
    """The largest row sum of side.side^t over the sides of a hypergraph's
    incidence, in O(nnz): row a sums the sizes of the columns at a."""
    return max((sum(len(side.by_col[c]) for c, _s in pairs) for side in sides for pairs in side.by_row), default=0)


def _smaller_side(inc: _Incidence) -> tuple[_Incidence, np.ndarray]:
    """The side A (s x t, s <= t) whose Gram A.A^t is the smaller one, with
    A as a dense float array; its small integer entries keep A.A^t exact."""
    side = inc if inc.rows <= inc.cols else inc.transposed()
    a = np.zeros((side.rows, side.cols))
    for r, pairs in enumerate(side.by_row):
        for c, s in pairs:
            a[r, c] = s
    return side, a


def _gram_operator(inc: _Incidence, theta: float) -> np.ndarray:
    """U(theta) on I.I^t (+) I^t.I by the Gram route of the module
    docstring, vertex block first; the off-diagonal blocks stay exact zeros."""
    side, a = _smaller_side(inc)
    lam, v = np.linalg.eigh(a @ a.T)
    w = a.T @ v
    phi = np.divide(np.expm1(-1j * theta * lam), lam, out=np.full(lam.shape, -1j * theta), where=lam != 0)
    small = (v * np.exp(-1j * theta * lam)) @ v.T
    large = (w * phi) @ w.T
    large.flat[:: side.cols + 1] += 1
    n = inc.rows
    u = np.zeros((n + inc.cols, n + inc.cols), dtype=complex)
    u[:n, :n], u[n:, n:] = (small, large) if side is inc else (large, small)
    return u


def evolution_operator(m: ExactMatrix, theta: float) -> np.ndarray:
    """U(theta) = exp(-i*theta*m); unitary because m is symmetric real. A
    matrix from `susy_laplacian`, symmetric by construction, takes the route
    through its incidence's smaller Gram and never reads its entries."""
    inc = m._incidence
    if inc is not None:
        _check_theta(theta, _row_sum_bound(inc, inc.transposed()))
        return _gram_operator(inc, theta) if theta else np.eye(m.dim, dtype=complex)
    _check_theta(theta, max((sum(map(abs, row)) for row in m.entries), default=0))
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
    over the smaller Gram's eigenvalues; a zero one adds 1 on each side. The
    guard's rho is that Gram's alone."""
    _expect(h, Hypergraph, "partition_trace")
    inc = _incidence_lists(h)
    side, a = _smaller_side(inc)
    _check_theta(theta, _row_sum_bound(side))
    lam = np.linalg.eigvalsh(a @ a.T)
    return complex(2 * np.exp(-1j * theta * lam).sum() + abs(inc.rows - inc.cols))


def format_complex(z: complex) -> str:
    """`a+bi` with 12 significant digits; a signed zero prints as 0."""
    return f"{z.real + 0.0:.12g}{z.imag + 0.0:+.12g}i"

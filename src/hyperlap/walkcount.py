"""Walk-count and signed-walk-sum queries.

(Delta+)^k(i,j) counts hyperwalks of length k from v_i to v_j; (Delta-)^k
counts edge-hyperwalks; at CW levels the signed Laplacian powers give
signed sums over (d,d+1)- and (d+1,d)-hyperwalks. Each factor I.I^t is one
hyperwalk step (row -> incident column -> row), so a single entry is read
without forming Delta: start from e_i and take k sparse steps over the
incidence lists. Only for tiny dimensions at huge k is binary exponentiation
of the smaller side's Gram matrix cheaper; the route is chosen from the
input by counting the work of each.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laplacian import ExactMatrix, _Incidence, _incidence_lists, _laplacian, identity, mat_mul
from .model import CWHypergraph, Hypergraph, IndexOutOfRangeError, InvalidArgumentError


@dataclass(frozen=True)
class WalkQuery:
    kind: str  # "vertex" | "edge" | "lower" | "upper"
    from_index: int
    to_index: int
    length: int
    level: int = 0  # used by lower/upper only


@dataclass(frozen=True)
class CountResult:
    value: int
    query: WalkQuery
    family: str  # which Laplacian was powered


def matrix_power(m: ExactMatrix, k: int) -> ExactMatrix:
    """Exact m^k by binary exponentiation; m^0 is the identity."""
    if k < 0:
        raise InvalidArgumentError("negative power")
    result = identity(m.dim)
    base = m.entries
    e = k
    while e:
        if e & 1:
            result = mat_mul(result, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return ExactMatrix(dim=m.dim, entries=result, tag=f"{m.tag}^{k}")


def _check_index(name: str, value: int, upper: int) -> None:
    if not 1 <= value <= upper:
        raise IndexOutOfRangeError(f"{name} index {value} out of range [1..{upper}]")


def count_walks(h: Hypergraph, q: WalkQuery) -> CountResult:
    """Number of hyperwalks (kind=vertex) or edge-hyperwalks (kind=edge)
    of length q.length between the queried indices."""
    if q.kind not in ("vertex", "edge"):
        raise InvalidArgumentError(f"count_walks handles vertex/edge kinds, got {q.kind!r}")
    return _walk_entry(h, q)


def signed_count(x: CWHypergraph, q: WalkQuery) -> CountResult:
    """Signed sum over (d,d+1)-hyperwalks (kind=lower, indices are d-cells)
    or (d+1,d)-hyperwalks (kind=upper, indices are (d+1)-cells)."""
    if q.kind not in ("lower", "upper"):
        raise InvalidArgumentError(f"signed_count handles lower/upper kinds, got {q.kind!r}")
    return _walk_entry(x, q)


def _walk_entry(obj: Hypergraph | CWHypergraph, q: WalkQuery) -> CountResult:
    """Entry (from, to) of the k-th power of the even Laplacian (vertex,
    lower: walks on the rows of I) or the odd one (edge, upper: walks on
    the columns), by whichever route costs less on this input."""
    inc = _incidence_lists(obj, q.level)
    even = q.kind in ("vertex", "lower")
    side = inc if even else inc.transposed()
    _check_index("from", q.from_index, side.rows)
    _check_index("to", q.to_index, side.rows)
    if q.length < 0:
        raise InvalidArgumentError("length must be >= 0")
    route = _binary_power if _prefers_binary_power(side, q.length) else _sparse_steps
    value = route(side, q.from_index - 1, q.to_index - 1, q.length)
    return CountResult(value=value, query=q, family="even" if even else "odd")


def _prefers_binary_power(inc: _Incidence, k: int) -> bool:
    """Binary power does ~2*s^3 multiply-adds per product, bit_length(k)
    products, on an s x s Gram matrix with s the smaller side; sparse steps
    do ~2*nnz additions per step, k steps."""
    s = min(inc.rows, inc.cols)
    return 2 * s**3 * k.bit_length() < 2 * k * inc.nnz


def _sparse_steps(inc: _Incidence, i: int, j: int, k: int) -> int:
    """Entry (i, j), 0-based, of (I.I^t)^k over the rows of inc: start from
    e_i and apply v <- (v.I).I^t; the last step is only needed at row j."""
    if k == 0:
        return int(i == j)
    by_row, by_col = inc.by_row, inc.by_col
    v = [0] * inc.rows
    v[i] = 1
    for step in range(k):
        w = [0] * inc.cols
        for r, x in enumerate(v):
            if x:
                for c, s in by_row[r]:
                    w[c] += s * x
        if step == k - 1:
            return sum(s * w[c] for c, s in by_row[j])
        v = [0] * inc.rows
        for c, y in enumerate(w):
            if y:
                for r, s in by_col[c]:
                    v[r] += s * y


def _binary_power(inc: _Incidence, i: int, j: int, k: int) -> int:
    """The same entry by binary exponentiation of the smaller side's Gram
    matrix. When the rows are the larger side, (I.I^t)^k = I.(I^t.I)^(k-1).I^t,
    so the entry sums s*t*(I^t.I)^(k-1)(a, b) over row i's pairs (a, s) and
    row j's pairs (b, t)."""
    if inc.rows <= inc.cols:
        return matrix_power(_laplacian(inc, "even"), k).entries[i][j]
    if k == 0:
        return int(i == j)
    p = matrix_power(_laplacian(inc, "odd"), k - 1).entries
    return sum(s * t * p[a][b] for a, s in inc.by_row[i] for b, t in inc.by_row[j])


def power_table(m: ExactMatrix, kmax: int) -> list[ExactMatrix]:
    """[m^0, m^1, ..., m^kmax] by iterated multiplication (for tables the
    running product beats repeated binary exponentiation)."""
    out = [ExactMatrix(dim=m.dim, entries=identity(m.dim), tag=f"{m.tag}^0")]
    acc = identity(m.dim)
    for k in range(1, kmax + 1):
        acc = mat_mul(acc, m.entries)
        out.append(ExactMatrix(dim=m.dim, entries=acc, tag=f"{m.tag}^{k}"))
    return out

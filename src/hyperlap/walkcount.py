"""Walk-count and signed-walk-sum queries.

(Delta+)^k(i,j) counts hyperwalks of length k from v_i to v_j; (Delta-)^k
counts edge-hyperwalks; at CW levels the signed Laplacian powers give
signed sums over (d,d+1)- and (d+1,d)-hyperwalks. Each factor I.I^t is one
hyperwalk step (row -> incident column -> row). Delta is symmetric, so a
walk split at its midpoint reads an entry without forming Delta as
<H^k e_i, H^k e_j>: two sweeps of k half-steps v.I / w.I^t over the
incidence lists, each carrying half the entry's bits. Every sweep reads one
generator, `_half_steps`, and so does `enumeration.cross_check`, for which
half-step 2k from e_i is row i of Delta^k. Only for tiny dimensions at huge
k is binary exponentiation of the smaller side's Gram matrix (to half the
power) cheaper; the route is chosen from the input by counting the work of
each. Its squarings are checked only by the tests, against `matrix_power`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import mul

from .laplacian import ExactMatrix, _Incidence, _incidence_lists, _row_square, identity, mat_mul
from .model import CWHypergraph, Hypergraph, InvalidArgumentError, _check_query, _expect


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
    """Exact m^k by left-to-right binary exponentiation: square, then
    multiply by m (whose entries are small) on a 1 bit; m^0 is the identity."""
    if k < 0:
        raise InvalidArgumentError("negative power")
    result = identity(m.dim)
    for bit in bin(k)[2:]:
        result = mat_mul(result, result)
        if bit == "1":
            result = mat_mul(result, m.entries)
    return ExactMatrix(dim=m.dim, entries=result, tag=f"{m.tag}^{k}")


def count_walks(h: Hypergraph, q: WalkQuery) -> CountResult:
    """Number of hyperwalks (kind=vertex) or edge-hyperwalks (kind=edge)
    of length q.length between the queried indices."""
    _expect(h, Hypergraph, "count_walks")
    return signed_count(h, q)


def signed_count(x: CWHypergraph, q: WalkQuery) -> CountResult:
    """Signed sum over (d,d+1)-hyperwalks (kind=lower, indices are d-cells)
    or (d+1,d)-hyperwalks (kind=upper, indices are (d+1)-cells). Both
    functions read entry (from, to) of the k-th power of the even Laplacian
    (vertex, lower: walks on the rows of I) or the odd one (edge, upper:
    walks on the columns), by whichever route costs less on this input."""
    odd = _check_query(x, q.kind, q.level, q.from_index, q.to_index, q.length)
    inc = _incidence_lists(x, q.level)
    side = inc.transposed() if odd else inc
    route = _binary_power if _prefers_binary_power(side, q.length) else _sparse_steps
    value = route(side, q.from_index - 1, q.to_index - 1, q.length)
    return CountResult(value=value, query=q, family="odd" if odd else "even")


def _prefers_binary_power(inc: _Incidence, k: int) -> bool:
    """Binary power squares the s x s Gram matrix, s the smaller side, about
    bit_length(k) - 2 times at ~s^3/2 multiply-adds each; sparse steps take
    at most 2k half-steps of ~nnz additions (k when i == j). The rule,
    2*s^3*bit_length(k) < 2*k*nnz, weighs the squarings 4x over that count
    and leaves out the bits, which both routes halve."""
    s = min(inc.rows, inc.cols)
    return 2 * s**3 * k.bit_length() < 2 * k * inc.nnz


def _half_steps(inc: _Incidence, i: int):
    """H^t e_i for t = 0, 1, 2, ..., 0-based: from e_i over the rows of inc,
    alternately v <- v.I (onto the columns) and w <- w.I^t (back); t = 2k is
    row i of (I.I^t)^k. A yielded list is never changed, and must not be."""
    pairs, back = inc.by_row, inc.by_col
    v = [0] * inc.rows
    v[i] = 1
    while True:
        yield v
        w = [0] * len(back)
        for r, x in enumerate(v):
            if x:
                for c, s in pairs[r]:
                    w[c] += s * x
        v, pairs, back = w, back, pairs


def _sparse_steps(inc: _Incidence, i: int, j: int, k: int) -> int:
    """Entry (i, j), 0-based, of (I.I^t)^k over the rows of inc as
    <H^k e_i, H^k e_j>: a length-k walk is k half-steps out of i joined to
    k half-steps out of j. When k is odd both sweeps end on the columns."""
    x = next(islice(_half_steps(inc, i), k, None))
    y = x if i == j else next(islice(_half_steps(inc, j), k, None))
    return sum(map(mul, x, y))


def _sym_product(p, q) -> list[list[int]]:
    """p.q for symmetric p and q that commute (powers of one Gram matrix),
    so the product is symmetric too: only the upper triangle is computed,
    entry (a, b) as row a of p against row b (= column b) of q."""
    s = len(p)
    out = [[0] * s for _ in range(s)]
    for a in range(s):
        pa, oa = p[a], out[a]
        for b in range(a, s):
            oa[b] = out[b][a] = sum(map(mul, pa, q[b]))
    return out


def _times(x: list[int], m) -> list[int]:
    """x.m for a symmetric m, whose rows are its columns."""
    return [sum(map(mul, x, row)) for row in m]


def _binary_power(inc: _Incidence, i: int, j: int, k: int) -> int:
    """The same entry through the smaller side's Gram matrix G, as
    x.G^e.y^t with P = G^(e//2) applied to each end: <x.P.G^(e%2), y.P>.
    When the rows are the smaller side, x and y are e_i and e_j and e = k;
    otherwise (I.I^t)^k = I.(I^t.I)^(k-1).I^t, so x and y are rows i and j
    of I (one half-step from e_i and e_j) and e = k - 1."""
    flip = int(inc.rows > inc.cols)
    if flip and k == 0:
        return int(i == j)
    g = _row_square(inc.transposed() if flip else inc)
    x, y = (next(islice(_half_steps(inc, a), flip, None)) for a in (i, j))
    e = k - flip
    if e >> 1:
        p = g
        for bit in bin(e >> 1)[3:]:
            p = _sym_product(p, p)
            if bit == "1":
                p = _sym_product(p, g)
        x = _times(x, p)
        y = x if i == j else _times(y, p)
    if e & 1:
        x = _times(x, g)
    return sum(map(mul, x, y))

"""Incidence matrices and the four Laplacian families, in exact integer
arithmetic.

Every matrix here is built from one sparse form of the incidence relation
(`_incidence_lists`). It is built only for a structure that passed
`model._check_structure`, the same check `validate` reports and the
enumerator raises on, which runs at most once per object; the lists of
each level are kept in the `_views` that marks the object as checked.

Matrices are dense tuples-of-tuples of Python ints; entries never overflow,
which matters because walk counts grow geometrically with the power.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .model import CWHypergraph, Hypergraph, InvalidArgumentError, _check_level, _check_structure, _expect, _level


@dataclass(frozen=True)
class IncidenceMatrix:
    """Dense incidence of one level: n x m over {0,1} for a hypergraph (entry
    (i,j) = 1 iff vertex i lies in edge j), c_d x c_{d+1} over {-1,0,+1} for
    level d of a CW-hypergraph."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
    level: int = 0


@dataclass(frozen=True)
class ExactMatrix:
    """Dense square integer matrix (a Laplacian or a power of one).
    `susy_laplacian` keeps the incidence it was built from in `_incidence`,
    outside equality, hash and repr; `dataclasses.replace` drops it. Such a
    matrix is symmetric by construction, and its entries are built from the
    incidence on first read. `evolve` takes the bound rho of any other matrix
    from its entries, and of this one from the incidence lists alone."""

    dim: int
    entries: tuple[tuple[int, ...], ...]
    tag: str = "plain"
    _incidence: _Incidence | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.entries) != self.dim or any(len(row) != self.dim for row in self.entries):
            raise InvalidArgumentError(f"entries must be {self.dim} rows of {self.dim}")

    def __getattr__(self, name: str):
        # reached only when normal lookup fails: the unbuilt entries of a susy matrix
        if name != "entries" or self._incidence is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, "entries", _susy_entries(self._incidence))
        return self.entries

    def entry(self, i: int, j: int) -> int:
        """1-based entry access."""
        return self.entries[i - 1][j - 1]

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.dim))

    def is_symmetric(self) -> bool:
        """Each row equals the matching column, compared exactly."""
        return all(tuple(row) == col for row, col in zip(self.entries, zip(*self.entries)))


class _Incidence(NamedTuple):
    """Sparse signed incidence of one level, 0-based: by_row[r] lists the
    (column, sign) pairs of row r and by_col[c] the (row, sign) pairs of
    column c. Rows are vertices / d-cells, columns edges / (d+1)-cells.
    Every caller shares the lists kept on the object, so none may change them."""

    rows: int
    cols: int
    by_row: list[list[tuple[int, int]]]
    by_col: list[list[tuple[int, int]]]

    @property
    def nnz(self) -> int:
        return sum(map(len, self.by_row))

    def transposed(self) -> _Incidence:
        return _Incidence(self.cols, self.rows, self.by_col, self.by_row)


def _incidence_lists(obj: Hypergraph | CWHypergraph, d: int = 0) -> _Incidence:
    """The incidence lists of level d of obj, read from `model._level`.
    `_check_structure` raises on every structure `validate` rejects; the
    lists of each level are then built once and kept in the object's `_views`."""
    _check_level(obj, d)
    _check_structure(obj)
    views = obj._views
    if d not in views:
        rows, cols, triples = _level(obj, d)
        by_row = [[] for _ in range(rows)]
        by_col = [[] for _ in range(cols)]
        for i, j, s in triples:
            by_row[i - 1].append((j - 1, s))
            by_col[j - 1].append((i - 1, s))
        views[d] = _Incidence(rows, cols, by_row, by_col)
    return views[d]


def _freeze(rows: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(r) for r in rows)


def _dense(inc: _Incidence) -> tuple[tuple[int, ...], ...]:
    out = [[0] * inc.cols for _ in range(inc.rows)]
    for r, pairs in enumerate(inc.by_row):
        for c, s in pairs:
            out[r][c] = s
    return _freeze(out)


def _row_square(inc: _Incidence) -> tuple[tuple[int, ...], ...]:
    """I.I^t over the rows of inc, summed column by column: each column adds
    the products of its own pairs only, O(sum of squared column sizes)."""
    out = [[0] * inc.rows for _ in range(inc.rows)]
    for pairs in inc.by_col:
        for a, s in pairs:
            row = out[a]
            for b, t in pairs:
                row[b] += s * t
    return _freeze(out)


def _laplacian(inc: _Incidence, parity: str) -> ExactMatrix:
    """even: I.I^t over the rows; odd: I^t.I over the columns."""
    if parity not in ("even", "odd"):
        raise InvalidArgumentError(f"parity must be 'even' or 'odd', got {parity!r}")
    side = inc if parity == "even" else inc.transposed()
    return ExactMatrix(dim=side.rows, entries=_row_square(side), tag=parity)


def mat_mul(a, b):
    """Exact product of two row-major integer matrices (nested sequences).
    The inner dimension is taken from a's row length, so degenerate 0-column
    shapes multiply correctly."""
    n = len(a)
    k = len(a[0]) if n else 0
    p = len(b[0]) if k else 0
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for q in range(k):
            aiq = ai[q]
            if aiq:
                bq = b[q]
                for j in range(p):
                    oi[j] += aiq * bq[j]
    return _freeze(out)


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def incidence(h: Hypergraph) -> IncidenceMatrix:
    """0/1 vertex-by-edge incidence matrix; column order is edge order."""
    _expect(h, Hypergraph, "incidence")
    return IncidenceMatrix(rows=h.n, cols=h.m, entries=_dense(_incidence_lists(h)))


def hypergraph_laplacian(h: Hypergraph, parity: str) -> ExactMatrix:
    """even: n x n vertex Laplacian I.I^t; odd: m x m edge Laplacian I^t.I."""
    _expect(h, Hypergraph, "hypergraph_laplacian")
    return _laplacian(_incidence_lists(h), parity)


def d_incidence(x: CWHypergraph, d: int) -> IncidenceMatrix:
    """Signed c_d x c_{d+1} incidence matrix at level d."""
    inc = _incidence_lists(x, d)
    return IncidenceMatrix(rows=inc.rows, cols=inc.cols, entries=_dense(inc), level=d)


def cw_laplacian(x: CWHypergraph, d: int, parity: str) -> ExactMatrix:
    """even: c_d x c_d matrix I_d.I_d^t; odd: c_{d+1} x c_{d+1} matrix I_d^t.I_d."""
    return _laplacian(_incidence_lists(x, d), parity)


def _susy_entries(inc: _Incidence) -> tuple[tuple[int, ...], ...]:
    even, odd = _row_square(inc), _row_square(inc.transposed())
    pad_m, pad_n = (0,) * inc.cols, (0,) * inc.rows
    return tuple(r + pad_m for r in even) + tuple(pad_n + r for r in odd)


def susy_laplacian(h: Hypergraph) -> ExactMatrix:
    """Block direct sum of the even and odd Laplacians: (n+m) x (n+m),
    vertex block first. The entries are built on first read (`ExactMatrix`)."""
    _expect(h, Hypergraph, "susy_laplacian")
    inc = _incidence_lists(h)
    out = object.__new__(ExactMatrix)
    vars(out).update(dim=inc.rows + inc.cols, tag="susy", _incidence=inc)
    return out

"""Incidence matrices and the four Laplacian families, in exact integer
arithmetic.

Every matrix here is built from one sparse form of the incidence relation
(`_incidence_lists`), which is also the single place where a structure is
checked before any count is computed from it. A hypergraph is read as a
one-level CW-hypergraph whose signs are all +1.

Matrices are dense tuples-of-tuples of Python ints; entries never overflow,
which matters because walk counts grow geometrically with the power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .model import CWHypergraph, Hypergraph, InvalidArgumentError, InvalidStructureError, LevelOutOfRangeError


@dataclass(frozen=True)
class IncidenceMatrix:
    """n x m 0/1 matrix: entry (i,j) = 1 iff vertex i lies in edge j."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SignedIncidenceMatrix:
    """c_d x c_{d+1} matrix over {-1,0,+1} recording oriented incidence at
    one level of a CW-hypergraph."""

    level: int
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ExactMatrix:
    """Dense square integer matrix (a Laplacian or a power of one)."""

    dim: int
    entries: tuple[tuple[int, ...], ...]
    tag: str = "plain"

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
    column c. Rows are vertices / d-cells, columns edges / (d+1)-cells."""

    rows: int
    cols: int
    by_row: list[list[tuple[int, int]]]
    by_col: list[list[tuple[int, int]]]

    @property
    def nnz(self) -> int:
        return sum(map(len, self.by_row))

    def transposed(self) -> _Incidence:
        return _Incidence(self.cols, self.rows, self.by_col, self.by_row)


def _edge_triples(edges):
    """(vertex, edge, +1) for each membership, 1-based; raises on an empty
    or a decreasing edge (a repeated vertex is left to the duplicate check)."""
    for j, edge in enumerate(edges, start=1):
        if not edge:
            raise InvalidStructureError(f"edge {j}: edge is empty")
        prev = 0
        for v in edge:
            if v < prev:
                raise InvalidStructureError(f"edge {j}, vertex {v}: vertex indices must be strictly increasing")
            prev = v
            yield v, j, 1


def _incidence_lists(obj: Hypergraph | CWHypergraph, d: int = 0) -> _Incidence:
    """The incidence lists of a hypergraph (d is ignored) or of level d of a
    CW-hypergraph. Raises before returning on every structure `validate`
    rejects that reaches a count: an index out of range, a sign other than
    +-1, a repeated pair (a vertex twice in one edge or a repeated CW
    incidence), an empty or non-increasing edge, n < 1, or a label count
    that does not match n or m."""
    if isinstance(obj, Hypergraph):
        rows, cols = obj.n, obj.m
        if rows < 1:
            raise InvalidStructureError(f"vertex count must be positive, got {rows}")
        if len(obj.vertex_labels) != rows or len(obj.edge_labels) != cols:
            raise InvalidStructureError("vertex or edge label count does not match n or m")
        triples = _edge_triples(obj.edges)

        def where(i, j):
            return f"edge {j}, vertex {i}"
    else:
        if not 0 <= d <= obj.top_dim - 1:
            raise LevelOutOfRangeError(f"level {d} out of range [0..{obj.top_dim - 1}]")
        if d >= len(obj.incidences):
            raise InvalidStructureError(f"no incidence relation given for level {d}")
        rows, cols = obj.counts[d], obj.counts[d + 1]
        triples = obj.incidences[d]

        def where(i, j):
            return f"level {d} incidence ({i},{j})"
    by_row = [[] for _ in range(rows)]
    by_col = [[] for _ in range(cols)]
    seen = set()
    for i, j, s in triples:
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise InvalidStructureError(f"{where(i, j)}: index out of range [1..{rows}] x [1..{cols}]")
        if s not in (-1, 1):
            raise InvalidStructureError(f"{where(i, j)}: sign must be -1 or +1, got {s}")
        if (i, j) in seen:
            raise InvalidStructureError(f"{where(i, j)}: duplicate incidence pair")
        seen.add((i, j))
        by_row[i - 1].append((j - 1, s))
        by_col[j - 1].append((i - 1, s))
    return _Incidence(rows, cols, by_row, by_col)


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
    return IncidenceMatrix(rows=h.n, cols=h.m, entries=_dense(_incidence_lists(h)))


def hypergraph_laplacian(h: Hypergraph, parity: str) -> ExactMatrix:
    """even: n x n vertex Laplacian I.I^t; odd: m x m edge Laplacian I^t.I."""
    return _laplacian(_incidence_lists(h), parity)


def d_incidence(x: CWHypergraph, d: int) -> SignedIncidenceMatrix:
    """Signed c_d x c_{d+1} incidence matrix at level d."""
    inc = _incidence_lists(x, d)
    return SignedIncidenceMatrix(level=d, rows=inc.rows, cols=inc.cols, entries=_dense(inc))


def cw_laplacian(x: CWHypergraph, d: int, parity: str) -> ExactMatrix:
    """even: c_d x c_d matrix I_d.I_d^t; odd: c_{d+1} x c_{d+1} matrix I_d^t.I_d."""
    return _laplacian(_incidence_lists(x, d), parity)


def susy_laplacian(h: Hypergraph) -> ExactMatrix:
    """Block direct sum of the even and odd Laplacians: (n+m) x (n+m),
    vertex block first."""
    inc = _incidence_lists(h)
    even = _row_square(inc)
    odd = _row_square(inc.transposed())
    pad_m, pad_n = (0,) * inc.cols, (0,) * inc.rows
    rows = tuple(r + pad_m for r in even) + tuple(pad_n + r for r in odd)
    return ExactMatrix(dim=inc.rows + inc.cols, entries=rows, tag="susy")

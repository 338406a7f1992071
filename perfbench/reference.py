"""Reference computations made apart from hyperlap.

Nothing here imports the program. A structure is plain data: an incidence
relation given as (row, col, sign) triples, 1-based, between `rows` lower
cells (vertices, d-cells) and `cols` upper cells (edges, (d+1)-cells). A
hypergraph is the relation with every sign +1.

Walk counts come from a sparse vector iteration over incidence lists,
v <- (v.I).I^t, never from a matrix power, so they are independent of the
program's dense route. The evolution reference diagonalises the Laplacian
with numpy's eigh, independent of the program's Taylor series, and applies
U(theta) to a few vectors rather than forming it, so a check holds only
O(dim) memory beside the precomputed eigenvectors. The Figure 1 and Figure 2
fixtures are written out here from the paper, not read from the program.
"""

from __future__ import annotations

import numpy as np

# Figure 1: six segments and three shaded triangles on four vertices.
FIG1_EDGES = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 3, 4), (1, 2, 4), (2, 3, 4)]

# Figure 2: the same cells graded by dimension. 1-cells run from the lower to
# the higher vertex; the level-1 signs are the published orientation choice.
FIG2_EDGE_VERTS = [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
FIG2_LEVEL0 = sorted(t for j, (a, b) in enumerate(FIG2_EDGE_VERTS, 1) for t in ((a, j, -1), (b, j, 1)))
FIG2_LEVEL1 = sorted([(2, 1, -1), (4, 1, 1), (6, 1, -1), (1, 2, 1), (4, 2, -1), (5, 2, 1),
                      (3, 3, -1), (5, 3, 1), (6, 3, -1)])
FIG2_SKELETONS = {**{(1, j): e for j, e in enumerate(FIG2_EDGE_VERTS, 1)},
                  **{(2, j): e for j, e in enumerate(FIG1_EDGES[6:], 1)}}

# The fixtures in the form read_structure returns.
FIG1 = ("hg", 4, FIG1_EDGES)
FIG2 = ("cw", (4, 6, 3), [FIG2_LEVEL0, FIG2_LEVEL1], FIG2_SKELETONS)

# Published values: (fixture, level, side, from, to, length) -> entry.
# Walk counts on Figure 1 (vertex side, edge side) and signed sums on level 1
# of Figure 2 (lower side, upper side).
PUBLISHED = {
    ("fig1", 0, "row", 1, 3, 4): 5886,
    ("fig1", 0, "col", 7, 9, 3): 384,
    ("fig2", 1, "row", 1, 6, 4): 0,
    ("fig2", 1, "col", 1, 3, 1): 1,
    ("fig2", 1, "col", 1, 3, 2): 5,
}


def hypergraph_triples(edges) -> list[tuple[int, int, int]]:
    """Incidence triples of a hypergraph given as a list of vertex tuples."""
    return [(v, e, 1) for e, edge in enumerate(edges, start=1) for v in edge]


def power_entry(triples, side: str, i: int, j: int, k: int, signed: bool = True) -> int:
    """Entry (i, j) of (I.I^t)^k (side='row') or (I^t.I)^k (side='col').

    With signed=False every sign counts as +1, which gives the number of
    walks instead of their signed sum."""
    by_row: dict[int, list[tuple[int, int]]] = {}
    by_col: dict[int, list[tuple[int, int]]] = {}
    for r, c, s in triples:
        s = s if signed else 1
        by_row.setdefault(r, []).append((c, s))
        by_col.setdefault(c, []).append((r, s))
    out, back = (by_row, by_col) if side == "row" else (by_col, by_row)
    v = {i: 1}
    for _ in range(k):
        mid: dict[int, int] = {}
        for a, x in v.items():
            for b, s in out.get(a, ()):
                mid[b] = mid.get(b, 0) + x * s
        v = {}
        for b, y in mid.items():
            if y:
                for a, s in back.get(b, ()):
                    v[a] = v.get(a, 0) + y * s
    return v.get(j, 0)


def gram(triples, rows: int, cols: int, side: str) -> list[list[int]]:
    """I.I^t (side='row', rows x rows) or I^t.I (side='col', cols x cols),
    summed over shared cells."""
    size = rows if side == "row" else cols
    out = [[0] * size for _ in range(size)]
    shared: dict[int, list[tuple[int, int]]] = {}
    for r, c, s in triples:
        key, idx = (c, r) if side == "row" else (r, c)
        shared.setdefault(key, []).append((idx, s))
    for members in shared.values():
        for a, sa in members:
            for b, sb in members:
                out[a - 1][b - 1] += sa * sb
    return out


def composes_to_zero(lower_triples, upper_triples) -> bool:
    """Whether I_{d-1}.I_d vanishes, from two consecutive incidence levels."""
    down: dict[int, list[tuple[int, int]]] = {}
    for a, q, s in lower_triples:
        down.setdefault(q, []).append((a, s))
    total: dict[tuple[int, int], int] = {}
    for q, c, s in upper_triples:
        for a, sa in down.get(q, ()):
            total[(a, c)] = total.get((a, c), 0) + sa * s
    return not any(total.values())


def checked_triples(counts, kmax: int) -> int:
    """Number of (i, j, k) triples a full cross-check compares: the sum over
    levels d of (kmax+1)(c_d^2 + c_{d+1}^2)."""
    return sum((kmax + 1) * (a * a + b * b) for a, b in zip(counts, counts[1:]))


def spectrum(lap) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of a symmetric integer matrix."""
    return np.linalg.eigh(np.asarray(lap, dtype=float))


def evolve_vectors(eig, theta: float, vs: np.ndarray) -> np.ndarray:
    """U(theta).vs with U(theta) = V.diag(exp(-i.theta.lambda)).V^t, from a
    precomputed spectrum, without forming U: vs is dim x p, and besides V
    only dim x p arrays are made."""
    lam, vec = eig
    return vec @ (np.exp(-1j * theta * lam)[:, None] * (vec.T @ vs))


def unitarity_error(u: np.ndarray, vs: np.ndarray) -> float:
    """max |U*.(U.vs) - vs| over all entries: U.U* = I seen through the
    columns of vs, with only dim x p temporaries."""
    w = u @ vs
    return float(np.abs((w.conj().T @ u).conj().T - vs).max())


def probe_vectors(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Four random complex columns of unit 2-norm."""
    vs = rng.standard_normal((dim, 4)) + 1j * rng.standard_normal((dim, 4))
    return vs / np.linalg.norm(vs, axis=0)


def partition_trace(even_eig, odd_eig, theta: float) -> complex:
    """trace U_even(theta) + trace U_odd(theta) from the two spectra."""
    return complex(np.exp(-1j * theta * even_eig[0]).sum() + np.exp(-1j * theta * odd_eig[0]).sum())


def block_sum(a, b) -> list[list[int]]:
    """Block direct sum diag(a, b) of two square matrices."""
    n, m = len(a), len(b)
    return [list(row) + [0] * m for row in a] + [[0] * n + list(row) for row in b]


def read_structure(text: str):
    """Minimal reader for the `.hg` and `.cw` text forms: returns
    ('hg', n, edges) or ('cw', counts, levels, skeletons), where levels[d]
    is the sorted triple list of level d. It trusts its input."""
    counts: list[int] = []
    levels: dict[int, list[tuple[int, int, int]]] = {}
    skels: dict[tuple[int, int], tuple[int, ...]] = {}
    n = None
    edges: list[tuple[int, ...]] = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "vertices":
            n = int(tokens[1])
        elif tokens[0] == "edge":
            edges.append(tuple(sorted(int(t) for t in tokens[2:])))
        elif tokens[0] == "cells":
            counts.append(int(tokens[2]))
        elif tokens[0] == "inc":
            d, i, j, s = (int(t) for t in tokens[1:])
            levels.setdefault(d, []).append((i, j, s))
        elif tokens[0] == "skel":
            skels[(int(tokens[1]), int(tokens[2]))] = tuple(sorted(int(t) for t in tokens[3:]))
    if n is not None:
        return ("hg", n, edges)
    return ("cw", tuple(counts), [sorted(levels.get(d, [])) for d in range(len(counts) - 1)], skels)

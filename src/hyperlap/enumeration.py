"""Brute-force enumeration of all four walk kinds.

This is the independent oracle: every matrix-power answer in `walkcount`
can be replayed here by a DFS over the incidence relation itself, never
over a Laplacian. One DFS per start index visits each walk from it once, up
to the longest length asked for; nothing is memoised, so the work is the
number of walks, exponential by nature. A budget bounds the walks one
start's DFS visits, all lengths and ends counted. `cross_check` compares
each start's tallies with the rows of the sweep that answers `count`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice

from .laplacian import _incidence_lists
from .model import (CWHypergraph, Hypergraph, HyperlapError, InvalidArgumentError, _check_query, _check_structure,
                    _expect, _level, _report_names)
from .walkcount import _half_steps

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(HyperlapError):
    pass


class InvalidWalkError(HyperlapError):
    pass


def enumeration_budget() -> int:
    """Walks one start's DFS may visit; HYPERLAP_BUDGET overrides the default."""
    raw = os.environ.get("HYPERLAP_BUDGET")
    if not raw:
        return DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise InvalidArgumentError(f"HYPERLAP_BUDGET must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class Walk:
    """Alternating index sequence. vertex: v,e,v,...,v; edge: e,v,e,...,e;
    lower: d-cell,(d+1)-cell,...,d-cell; upper: (d+1)-cell,d-cell,...,(d+1)-cell.
    Consecutive repetition within a tier is allowed."""

    kind: str
    steps: tuple[int, ...]
    level: int = 0

    def render(self, labels_even, labels_odd) -> str:
        parts = []
        for pos, idx in enumerate(self.steps):
            parts.append(labels_even[idx - 1] if pos % 2 == 0 else labels_odd[idx - 1])
        return ",".join(parts)


@dataclass(frozen=True)
class CrossCheckReport:
    description: str
    checked: int
    mismatches: tuple[tuple[str, int, int, int, int, int], ...] = ()
    # each mismatch: (kind, i, j, k, matrix value, oracle value)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _steps(obj: Hypergraph | CWHypergraph, d: int) -> tuple[list, list]:
    """(even, odd) for level d of a checked obj: even[a] lists one hyperwalk
    step (middle, next, sign) from row a, odd[c] from column c, in
    lexicographic order, 1-based with slot 0 unused. The sign is the product
    of the step's two incidence signs."""
    rows, cols, triples = _level(obj, d)
    up = [[] for _ in range(rows + 1)]
    down = [[] for _ in range(cols + 1)]
    for a, c, s in sorted(triples):
        up[a].append((c, s))
        down[c].append((a, s))
    return ([[(c, b, s * t) for c, s in nbrs for b, t in down[c]] for nbrs in up],
            [[(a, e, s * t) for a, s in nbrs for e, t in up[a]] for nbrs in down])


def _spend(used, limit, start):
    if used > limit:
        raise BudgetExceededError(f"enumeration budget of {limit} walks exceeded: {used} walks visited "
                                  f"from index {start}; HYPERLAP_BUDGET overrides the limit")


# Both DFSs below keep an explicit stack, so a walk's length is bounded by the
# budget and not by Python's recursion limit. Children are pushed in reverse,
# so they pop in lexicographic order: the visit order, and hence the budget
# count at which a search stops, is that of a recursive preorder DFS.

def _tally(start, kmax, steps, limit):
    """tally[k][end]: the sum over every walk of length k <= kmax from
    `start` to `end` of its sign, each walk visited once by a DFS."""
    tally = [[0] * len(steps) for _ in range(kmax + 1)]
    tally[0][start] = 1
    used = 1
    stack = [(start, 0, 1)]
    while stack:
        at, k, sign = stack.pop()
        nxt = steps[at]
        used += len(nxt)
        _spend(used, limit, start)
        k += 1
        row = tally[k]
        for _mid, b, s in nxt:
            row[b] += sign * s
        if k + 1 < kmax:
            stack += [(b, k, sign * s) for _mid, b, s in reversed(nxt)]
        elif k < kmax:
            # the children would push nothing: visit them here, in the same order,
            # which spares most of the stack traffic (they are most of the walks)
            last = tally[kmax]
            for _mid, b, s in nxt:
                used += len(steps[b])
                _spend(used, limit, start)
                s *= sign
                for _mid, c, t in steps[b]:
                    last[c] += s * t
    return tally


def _listed(obj, d, kind, i, j, k, budget):
    """The walks of one kind, of length exactly k from i to j, with their
    signs, in lexicographic step order."""
    odd = _check_query(obj, kind, d, i, j, k)
    steps = _steps(obj, d)[odd]
    limit = budget if budget is not None else enumeration_budget()
    out = []
    used = 1
    stack = [((i,), i, 0, 1)]
    while stack:
        path, at, depth, sign = stack.pop()
        if depth == k:
            if at == j:
                out.append((Walk(kind=kind, steps=path, level=d), sign))
            continue
        used += len(steps[at])
        _spend(used, limit, i)
        stack += [(path + (mid, b), b, depth + 1, sign * s) for mid, b, s in reversed(steps[at])]
    return out


def enum_walks(h: Hypergraph, kind: str, i: int, j: int, k: int,
               budget: int | None = None) -> list[Walk]:
    """All hyperwalks (kind=vertex) or edge-hyperwalks (kind=edge) of
    exactly length k from i to j, in lexicographic step order."""
    _expect(h, Hypergraph, "enum_walks")
    return [w for w, _s in _listed(h, 0, kind, i, j, k, budget)]


def enum_signed_walks(x: CWHypergraph, d: int, kind: str, i: int, j: int, k: int,
                      budget: int | None = None) -> list[tuple[Walk, int]]:
    """All (d,d+1)-hyperwalks (kind=lower) or (d+1,d)-hyperwalks (kind=upper)
    of length k from i to j, each with its sign; on a hypergraph, any kind."""
    return _listed(x, d, kind, i, j, k, budget)


def walk_sign(x: CWHypergraph, w: Walk) -> int:
    """Product over each middle-tier element of its two incidence signs with
    the neighbouring steps; the empty product is +1."""
    _expect(x, CWHypergraph, "walk_sign")
    if len(w.steps) % 2 == 0:
        raise InvalidWalkError(f"a walk has an odd number of steps, got {len(w.steps)}")
    _check_query(x, w.kind, w.level, w.steps[0], w.steps[-1], 0)
    signs = x.sign_table(w.level)
    total = 1
    for pos in range(1, len(w.steps), 2):
        mid = w.steps[pos]
        for nbr in (w.steps[pos - 1], w.steps[pos + 1]):
            key = (nbr, mid) if w.kind == "lower" else (mid, nbr)
            s = signs.get(key)
            if s is None:
                raise InvalidWalkError(
                    f"walk requires incidence {key} at level {w.level}, which is absent"
                )
            total *= s
    return total


def cross_check(obj: Hypergraph | CWHypergraph, kmax: int,
                budget: int | None = None) -> CrossCheckReport:
    """Compare the route that answers `count` and `signed-count` with the
    enumerator, for every applicable kind, index pair and k <= kmax: row i of
    the k-th Laplacian power is half-step 2k of `walkcount`'s sweep from e_i,
    compared with start i's tally. Mismatches are ordered by kind, then k, i, j."""
    if kmax < 1:
        raise InvalidArgumentError("kmax must be >= 1")
    _check_structure(obj)
    desc, kinds = _report_names(obj, kmax)
    limit = budget if budget is not None else enumeration_budget()
    mismatches, checked = [], 0
    for d, pair in enumerate(kinds):
        inc = _incidence_lists(obj, d)
        for kind, side, steps in zip(pair, (inc, inc.transposed()), _steps(obj, d)):
            found = []
            for i in range(1, len(steps)):
                tally = _tally(i, kmax, steps, limit)
                rows = islice(_half_steps(side, i - 1), 0, 2 * kmax + 1, 2)
                found += [(k, i, j, mv, ov) for k, row in enumerate(rows) if row != tally[k][1:]
                          for j, (mv, ov) in enumerate(zip(row, tally[k][1:]), start=1) if mv != ov]
            mismatches += [(kind, i, j, k, mv, ov) for k, i, j, mv, ov in sorted(found)]
            checked += (kmax + 1) * (len(steps) - 1) ** 2
    return CrossCheckReport(description=desc, checked=checked, mismatches=tuple(mismatches))

"""Brute-force enumeration of all four walk kinds.

This is the independent oracle: every matrix-power answer in `walkcount`
can be replayed here by exhaustive depth-first generation. Exponential by
nature; a hard result-count budget keeps it at desk scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .laplacian import cw_laplacian, hypergraph_laplacian
from .model import (CWHypergraph, Hypergraph, HyperlapError, IndexOutOfRangeError, InvalidArgumentError,
                    InvalidStructureError, validate)
from .walkcount import power_table

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(HyperlapError):
    pass


class InvalidWalkError(HyperlapError):
    pass


def enumeration_budget() -> int:
    """Walk-count ceiling; HYPERLAP_BUDGET overrides the default."""
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


def _check_range(name, value, upper):
    if not 1 <= value <= upper:
        raise IndexOutOfRangeError(f"{name} index {value} out of range [1..{upper}]")


class _Budget:
    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(f"enumeration budget of {self.limit} walks exceeded")


def _alternating_walks(start, goal, steps_remaining, first_nbrs, second_nbrs, budget):
    """DFS over alternating two-tier sequences. `first_nbrs[a]` lists the
    other-tier elements adjacent to a; `second_nbrs` maps back. Candidates
    are pre-sorted, so emission order is lexicographic."""
    out = []

    def go(prefix, at, remaining):
        if remaining == 0:
            if at == goal:
                budget.spend()
                out.append(tuple(prefix))
            return
        for mid in first_nbrs.get(at, ()):
            prefix.append(mid)
            for nxt in second_nbrs.get(mid, ()):
                prefix.append(nxt)
                go(prefix, nxt, remaining - 1)
                prefix.pop()
            prefix.pop()

    go([start], start, steps_remaining)
    return out


def enum_walks(h: Hypergraph, kind: str, i: int, j: int, k: int,
               budget: int | None = None) -> list[Walk]:
    """All hyperwalks (kind=vertex) or edge-hyperwalks (kind=edge) of
    exactly length k from i to j, in lexicographic step order."""
    if kind not in ("vertex", "edge"):
        raise InvalidArgumentError(f"kind must be vertex or edge, got {kind!r}")
    if k < 0:
        raise InvalidArgumentError("length must be >= 0")
    edges_of = {v: tuple(q for q, e in enumerate(h.edges, start=1) if v in e)
                for v in range(1, h.n + 1)}
    verts_of = {q: e for q, e in enumerate(h.edges, start=1)}
    b = _Budget(budget if budget is not None else enumeration_budget())
    if kind == "vertex":
        _check_range("from", i, h.n)
        _check_range("to", j, h.n)
        seqs = _alternating_walks(i, j, k, edges_of, verts_of, b)
    else:
        _check_range("from", i, h.m)
        _check_range("to", j, h.m)
        seqs = _alternating_walks(i, j, k, verts_of, edges_of, b)
    return [Walk(kind=kind, steps=s) for s in seqs]


def enum_signed_walks(x: CWHypergraph, d: int, kind: str, i: int, j: int, k: int,
                      budget: int | None = None) -> list[tuple[Walk, int]]:
    """All (d,d+1)-hyperwalks (kind=lower) or (d+1,d)-hyperwalks (kind=upper)
    of length k from i to j, each with its sign."""
    if kind not in ("lower", "upper"):
        raise InvalidArgumentError(f"kind must be lower or upper, got {kind!r}")
    if k < 0:
        raise InvalidArgumentError("length must be >= 0")
    signs = x.sign_table(d)
    up_of = {}   # d-cell -> (d+1)-cells
    down_of = {}  # (d+1)-cell -> d-cells
    for (a, c), _s in sorted(signs.items()):
        up_of.setdefault(a, []).append(c)
        down_of.setdefault(c, []).append(a)
    b = _Budget(budget if budget is not None else enumeration_budget())
    if kind == "lower":
        _check_range("from", i, x.counts[d])
        _check_range("to", j, x.counts[d])
        seqs = _alternating_walks(i, j, k, up_of, down_of, b)
    else:
        _check_range("from", i, x.counts[d + 1])
        _check_range("to", j, x.counts[d + 1])
        seqs = _alternating_walks(i, j, k, down_of, up_of, b)
    walks = [Walk(kind=kind, steps=s, level=d) for s in seqs]
    return [(w, walk_sign(x, w)) for w in walks]


def walk_sign(x: CWHypergraph, w: Walk) -> int:
    """Product over each middle-tier element of its two incidence signs with
    the neighbouring steps; the empty product is +1."""
    if w.kind not in ("lower", "upper"):
        raise InvalidArgumentError(f"walk_sign applies to lower/upper walks, got {w.kind!r}")
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
    """Compare every matrix-power value against the enumerator, for every
    applicable kind, every index pair and every k <= kmax."""
    if kmax < 1:
        raise InvalidArgumentError("kmax must be >= 1")
    errors = [i for i in validate(obj).issues if i.severity == "error"]
    if errors:
        raise InvalidStructureError(f"invalid structure: {errors[0].location}: {errors[0].message}")
    checked = 0
    mismatches = []
    if isinstance(obj, Hypergraph):
        for kind, parity, space in (("vertex", "even", obj.n), ("edge", "odd", obj.m)):
            powers = power_table(hypergraph_laplacian(obj, parity), kmax)
            for k in range(kmax + 1):
                for i in range(1, space + 1):
                    for j in range(1, space + 1):
                        matrix_value = powers[k].entry(i, j)
                        oracle_value = len(enum_walks(obj, kind, i, j, k, budget=budget))
                        checked += 1
                        if matrix_value != oracle_value:
                            mismatches.append((kind, i, j, k, matrix_value, oracle_value))
        desc = f"hypergraph n={obj.n} m={obj.m} kmax={kmax}"
    else:
        for d in range(obj.top_dim):
            for kind, parity, space in (
                ("lower", "even", obj.counts[d]),
                ("upper", "odd", obj.counts[d + 1]),
            ):
                powers = power_table(cw_laplacian(obj, d, parity), kmax)
                for k in range(kmax + 1):
                    for i in range(1, space + 1):
                        for j in range(1, space + 1):
                            matrix_value = powers[k].entry(i, j)
                            oracle_value = sum(
                                s for _w, s in enum_signed_walks(obj, d, kind, i, j, k, budget=budget)
                            )
                            checked += 1
                            if matrix_value != oracle_value:
                                mismatches.append((f"{kind}@d={d}", i, j, k, matrix_value, oracle_value))
        desc = f"cw counts={obj.counts} kmax={kmax}"
    return CrossCheckReport(description=desc, checked=checked, mismatches=tuple(mismatches))

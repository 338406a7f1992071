"""Core combinatorial data types: hypergraphs and CW-hypergraphs.

Indices are 1-based everywhere at the API surface, matching the usual
v_1, e_1 labelling conventions. All types are immutable after construction.
This module is the one input boundary: `_issues` holds every structural rule
and `_check_query` every rule of a walk query. An object that passed is
marked by its private `_views` (outside equality, hash and repr), where
`laplacian` keeps its incidence lists, and is never checked again.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType


class HyperlapError(Exception):
    """Base class for all library errors."""


class IndexOutOfRangeError(HyperlapError):
    pass


class LevelOutOfRangeError(HyperlapError):
    pass


class MissingSkeletonError(HyperlapError):
    pass


class InvalidStructureError(HyperlapError):
    """A hypergraph or CW-hypergraph that breaks a structural invariant."""


class InvalidArgumentError(HyperlapError, ValueError):
    """An argument outside its domain: a negative length or power, kmax < 1,
    an unknown kind or parity, a non-finite theta, a malformed budget."""


def _labels(given, prefix: str, count: int) -> tuple[str, ...]:
    """The labels given, or if there are none the defaults prefix1..prefix<count>."""
    if given:
        return tuple(given)
    return tuple(f"{prefix}{i}" for i in range(1, count + 1))


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph: n vertices and an ordered list of edges.

    Each edge is a strictly increasing tuple of vertex indices in [1..n].
    Edge order is significant and preserved exactly as given.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]
    vertex_labels: tuple[str, ...] = ()
    edge_labels: tuple[str, ...] = ()
    _views: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        object.__setattr__(self, "vertex_labels", _labels(self.vertex_labels, "v", self.n))
        object.__setattr__(self, "edge_labels", _labels(self.edge_labels, "e", len(self.edges)))

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class CWHypergraph:
    """Combinatorial data of a CW-complex: cell counts per dimension and,
    per level d, a sparse signed incidence relation between d-cells and
    (d+1)-cells with signs in {-1,+1}.

    ``incidences[d]`` is a tuple of (i, j, s) triples: d-cell i is incident
    to (d+1)-cell j with sign s. ``skeletons`` optionally maps (d, j) with
    d >= 1 to the 0-skeleton vertex tuple of cell e_j^d, in a read-only copy;
    an empty map is stored as None, as a `.cw` file without `skel` lines reads.
    """

    counts: tuple[int, ...]
    incidences: tuple[tuple[tuple[int, int, int], ...], ...]
    skeletons: Mapping[tuple[int, int], tuple[int, ...]] | None = None
    _views: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        object.__setattr__(self, "incidences", tuple(tuple(tuple(t) for t in level) for level in self.incidences))
        object.__setattr__(self, "skeletons", MappingProxyType(dict(self.skeletons)) if self.skeletons else None)

    @property
    def top_dim(self) -> int:
        return len(self.counts) - 1

    def sign_table(self, d: int) -> dict[tuple[int, int], int]:
        """Lookup (i, j) -> sign for the incidence relation at level d."""
        _check_level(self, d)
        return {(i, j): s for i, j, s in self.incidences[d]}


@dataclass(frozen=True)
class Issue:
    severity: str  # "error" | "warning"
    location: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[Issue, ...] = ()
    boundary_squared_zero: dict[int, bool] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(i.severity == "error" for i in self.issues)


def _issues(obj: Hypergraph | CWHypergraph):
    """Every structural error of obj, as (key, `Issue`), in a fixed order:
    the one check that `validate` reports and every route raises on. The key
    names the element at fault: 0 for the vertex count or labels, j for edge
    j, d for dimension d, (d, i, j) for an incidence, (d, j) for a skeleton."""
    if isinstance(obj, Hypergraph):
        if obj.n < 1:
            yield 0, Issue("error", "vertices", f"vertex count must be positive, got {obj.n}")
        for j, edge in enumerate(obj.edges, start=1):
            loc = f"edge {j}"
            if not edge:
                yield j, Issue("error", loc, "edge is empty")
                continue
            for v in edge:
                if not 1 <= v <= obj.n:
                    yield j, Issue("error", loc, f"vertex index {v} out of range [1..{obj.n}]")
            if any(a >= b for a, b in zip(edge, edge[1:])):
                yield j, Issue("error", loc, "vertex indices must be strictly increasing")
        if len(obj.vertex_labels) != obj.n:
            yield 0, Issue("error", "labels", "vertex label count does not match n")
        if len(obj.edge_labels) != obj.m:
            yield 0, Issue("error", "labels", "edge label count does not match m")
        return
    if len(obj.incidences) != max(len(obj.counts) - 1, 0):
        yield None, Issue("error", "incidences", "need exactly one incidence level per consecutive dimension pair")
        return
    for d, count in enumerate(obj.counts):
        if count < 0:
            yield d, Issue("error", f"dimension {d}", f"negative cell count {count}")
    for d, level in enumerate(obj.incidences):
        seen = set()
        for i, j, s in level:
            key, loc = (d, i, j), f"level {d} incidence ({i},{j})"
            if not 1 <= i <= obj.counts[d]:
                yield key, Issue("error", loc, f"{d}-cell index {i} out of range [1..{obj.counts[d]}]")
            if not 1 <= j <= obj.counts[d + 1]:
                yield key, Issue("error", loc, f"{d + 1}-cell index {j} out of range [1..{obj.counts[d + 1]}]")
            if s not in (-1, 1):
                yield key, Issue("error", loc, f"sign must be -1 or +1, got {s}")
            if (i, j) in seen:
                yield key, Issue("error", loc, "duplicate incidence pair")
            seen.add((i, j))
    if obj.skeletons is not None:
        for (d, j), skel in obj.skeletons.items():
            loc = f"skeleton of {d}-cell {j}"
            if not 1 <= d <= obj.top_dim or not 1 <= j <= obj.counts[d]:
                yield (d, j), Issue("error", loc, "cell does not exist")
                continue
            if not skel:
                yield (d, j), Issue("error", loc, "skeleton is empty")
            for v in skel:
                if not 1 <= v <= obj.counts[0]:
                    yield (d, j), Issue("error", loc, f"vertex index {v} out of range [1..{obj.counts[0]}]")


def _faults(obj: Hypergraph | CWHypergraph) -> list:
    """`_issues` of an unmarked object, which is marked if it has none."""
    if obj._views is not None:
        return []
    found = list(_issues(obj))
    if not found:
        object.__setattr__(obj, "_views", {})
    return found


def _check_structure(obj: Hypergraph | CWHypergraph) -> None:
    """Raise on the first issue `validate` would report as an error."""
    for _key, issue in _faults(obj)[:1]:
        raise InvalidStructureError(f"invalid structure: {issue.location}: {issue.message}")


def _expect(obj, cls: type, what: str) -> None:
    """Refuse an object of the wrong type for a one-type entry point."""
    if not isinstance(obj, cls):
        raise InvalidArgumentError(f"{what} applies to a {cls.__name__}, got a {type(obj).__name__}")


def _check_level(obj: Hypergraph | CWHypergraph, d: int) -> None:
    """Check d against obj's incidence levels; a hypergraph has level 0 only."""
    top = 0 if isinstance(obj, Hypergraph) else obj.top_dim - 1
    if not 0 <= d <= top:
        raise LevelOutOfRangeError(f"level {d} out of range [0..{top}]")


def _level(obj: Hypergraph | CWHypergraph, d: int):
    """Level d of obj as (rows, cols, triples), a triple (i, j, s) for each
    d-cell i on (d+1)-cell j with sign s: the one shape of both types. A
    hypergraph is the one-level case with every sign +1, its vertices as
    rows and its edges as columns, in edge order; a CW level is not copied."""
    if isinstance(obj, Hypergraph):
        return obj.n, obj.m, ((v, j, 1) for j, edge in enumerate(obj.edges, start=1) for v in edge)
    return obj.counts[d], obj.counts[d + 1], obj.incidences[d]


def _check_query(obj: Hypergraph | CWHypergraph, kind: str, d: int, i: int, j: int, k: int) -> int:
    """Check the kind against obj's type, then the level, the structure, from
    i, to j and the length k. A hypergraph reads lower and upper as vertex and
    edge; a CW-hypergraph takes only those two. Returns the side the walk runs
    on: 0 for the rows of level d's incidence, 1 for its columns."""
    kinds = ("vertex", "edge", "lower", "upper") if isinstance(obj, Hypergraph) else ("lower", "upper")
    if kind not in kinds:
        raise InvalidArgumentError(f"kind must be one of {', '.join(kinds)} on a {type(obj).__name__}, got {kind!r}")
    _check_level(obj, d)
    _check_structure(obj)
    odd = int(kind in ("edge", "upper"))
    size = _level(obj, d)[odd]
    for name, index in (("from", i), ("to", j)):
        if not 1 <= index <= size:
            raise IndexOutOfRangeError(f"{name} index {index} out of range [1..{size}]")
    if k < 0:
        raise InvalidArgumentError("length must be >= 0")
    return odd


def _report_names(obj: Hypergraph | CWHypergraph, kmax: int) -> tuple[str, list[tuple[str, str]]]:
    """A cross-check report's description of obj, and per level the kinds
    of the mismatches on its rows and on its columns."""
    if isinstance(obj, Hypergraph):
        return f"hypergraph n={obj.n} m={obj.m} kmax={kmax}", [("vertex", "edge")]
    return f"cw counts={obj.counts} kmax={kmax}", [(f"lower@d={d}", f"upper@d={d}") for d in range(obj.top_dim)]


def _boundary_squared(x: CWHypergraph) -> dict[int, bool]:
    """Boundary-squared diagnostic: I_{d-1} . I_d == 0, reported per
    composition level d >= 1. Each product pairs the incidences that share a
    middle d-cell q."""
    bsz: dict[int, bool] = {}
    for d in range(1, len(x.incidences)):
        below: dict[int, list[tuple[int, int]]] = {}
        for i, q, s in x.incidences[d - 1]:
            below.setdefault(q, []).append((i, s))
        composed: dict[tuple[int, int], int] = {}
        for q, j, t in x.incidences[d]:
            for i, s in below.get(q, ()):
                composed[i, j] = composed.get((i, j), 0) + s * t
        bsz[d] = not any(composed.values())
    return bsz


def validate(obj: Hypergraph | CWHypergraph) -> ValidationReport:
    """Check every structural invariant; violations are reported, not raised.
    A nonzero boundary composition of a CW-hypergraph is a warning, never an
    error, and is looked for only when there are no errors. A checked object
    is not checked again."""
    issues = [issue for _key, issue in _faults(obj)]
    bsz = _boundary_squared(obj) if isinstance(obj, CWHypergraph) and not issues else {}
    issues += [Issue("warning", f"levels {d - 1}..{d}", "composed signed incidence is not zero")
               for d, zero in bsz.items() if not zero]
    return ValidationReport(issues=tuple(issues), boundary_squared_zero=bsz)


def project_hypergraph(x: CWHypergraph) -> Hypergraph:
    """The plain hypergraph underlying a CW-hypergraph: vertices are the
    0-cells, edges are the 0-skeletons of cells of dimension >= 1, ordered
    by (dimension, index)."""
    edges = []
    labels = []
    for d in range(1, x.top_dim + 1):
        for j in range(1, x.counts[d] + 1):
            skel = None if x.skeletons is None else x.skeletons.get((d, j))
            if skel is None:
                raise MissingSkeletonError(f"{d}-cell {j} has no 0-skeleton data")
            edges.append(tuple(sorted(set(skel))))
            labels.append(f"e{j}^{d}")
    return Hypergraph(n=x.counts[0], edges=tuple(edges), edge_labels=tuple(labels))

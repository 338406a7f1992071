"""Core combinatorial data types: hypergraphs and CW-hypergraphs.

Indices are 1-based everywhere at the API surface, matching the usual
v_1, e_1 labelling conventions. All types are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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


def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
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

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if not self.vertex_labels:
            object.__setattr__(self, "vertex_labels", _default_labels("v", self.n))
        else:
            object.__setattr__(self, "vertex_labels", tuple(self.vertex_labels))
        if not self.edge_labels:
            object.__setattr__(self, "edge_labels", _default_labels("e", len(self.edges)))
        else:
            object.__setattr__(self, "edge_labels", tuple(self.edge_labels))

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
    d >= 1 to the 0-skeleton vertex tuple of cell e_j^d.
    """

    counts: tuple[int, ...]
    incidences: tuple[tuple[tuple[int, int, int], ...], ...]
    skeletons: dict[tuple[int, int], tuple[int, ...]] | None = None

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(self.counts))
        object.__setattr__(
            self,
            "incidences",
            tuple(tuple(tuple(t) for t in level) for level in self.incidences),
        )

    @property
    def top_dim(self) -> int:
        return len(self.counts) - 1

    def sign_table(self, d: int) -> dict[tuple[int, int], int]:
        """Lookup (i, j) -> sign for the incidence relation at level d."""
        if not 0 <= d <= self.top_dim - 1:
            raise LevelOutOfRangeError(
                f"level {d} out of range [0..{self.top_dim - 1}]"
            )
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


def _validate_hypergraph(h: Hypergraph) -> list[Issue]:
    issues = []
    if h.n < 1:
        issues.append(Issue("error", "vertices", f"vertex count must be positive, got {h.n}"))
    for j, edge in enumerate(h.edges, start=1):
        loc = f"edge {j}"
        if not edge:
            issues.append(Issue("error", loc, "edge is empty"))
            continue
        for v in edge:
            if not 1 <= v <= h.n:
                issues.append(Issue("error", loc, f"vertex index {v} out of range [1..{h.n}]"))
        if any(a >= b for a, b in zip(edge, edge[1:])):
            issues.append(Issue("error", loc, "vertex indices must be strictly increasing"))
    if len(h.vertex_labels) != h.n:
        issues.append(Issue("error", "labels", "vertex label count does not match n"))
    if len(h.edge_labels) != h.m:
        issues.append(Issue("error", "labels", "edge label count does not match m"))
    return issues


def _validate_cw(x: CWHypergraph) -> tuple[list[Issue], dict[int, bool]]:
    issues = []
    if len(x.incidences) != max(len(x.counts) - 1, 0):
        issues.append(
            Issue("error", "incidences", "need exactly one incidence level per consecutive dimension pair")
        )
        return issues, {}
    for d, count in enumerate(x.counts):
        if count < 0:
            issues.append(Issue("error", f"dimension {d}", f"negative cell count {count}"))
    for d, level in enumerate(x.incidences):
        seen = set()
        for i, j, s in level:
            loc = f"level {d} incidence ({i},{j})"
            if not 1 <= i <= x.counts[d]:
                issues.append(Issue("error", loc, f"{d}-cell index {i} out of range [1..{x.counts[d]}]"))
            if not 1 <= j <= x.counts[d + 1]:
                issues.append(
                    Issue("error", loc, f"{d + 1}-cell index {j} out of range [1..{x.counts[d + 1]}]")
                )
            if s not in (-1, 1):
                issues.append(Issue("error", loc, f"sign must be -1 or +1, got {s}"))
            if (i, j) in seen:
                issues.append(Issue("error", loc, "duplicate incidence pair"))
            seen.add((i, j))
    if x.skeletons is not None:
        for (d, j), skel in x.skeletons.items():
            loc = f"skeleton of {d}-cell {j}"
            if not 1 <= d <= x.top_dim or not 1 <= j <= x.counts[d]:
                issues.append(Issue("error", loc, "cell does not exist"))
                continue
            if not skel:
                issues.append(Issue("error", loc, "skeleton is empty"))
            for v in skel:
                if not 1 <= v <= x.counts[0]:
                    issues.append(Issue("error", loc, f"vertex index {v} out of range [1..{x.counts[0]}]"))

    # Boundary-squared diagnostic: I_{d-1} . I_d == 0, reported per composition
    # level d >= 1; a nonzero composition is a warning, never an error. Each
    # product pairs the incidences that share a middle d-cell q.
    bsz: dict[int, bool] = {}
    if not issues:
        for d in range(1, len(x.incidences)):
            below: dict[int, list[tuple[int, int]]] = {}
            for i, q, s in x.incidences[d - 1]:
                below.setdefault(q, []).append((i, s))
            composed: dict[tuple[int, int], int] = {}
            for q, j, t in x.incidences[d]:
                for i, s in below.get(q, ()):
                    composed[i, j] = composed.get((i, j), 0) + s * t
            zero = not any(composed.values())
            bsz[d] = zero
            if not zero:
                issues.append(
                    Issue("warning", f"levels {d - 1}..{d}", "composed signed incidence is not zero")
                )
    return issues, bsz


def validate(obj: Hypergraph | CWHypergraph) -> ValidationReport:
    """Check every structural invariant; violations are reported, not raised."""
    if isinstance(obj, Hypergraph):
        return ValidationReport(issues=tuple(_validate_hypergraph(obj)))
    issues, bsz = _validate_cw(obj)
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

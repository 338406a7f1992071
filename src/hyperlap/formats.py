"""Strict line-oriented parsers/serializers for the `.hg` and `.cw` formats,
plus the two built-in figure fixtures.

.hg:  `vertices <n>` then `edge <name> <i1> <i2> ...` (1-based).
.cw:  `cells <d> <count>` in ascending d from 0; `inc <d> <i> <j> <+1|-1>`;
      optional `skel <d> <j> <v1> <v2> ...`.
`#` starts a comment; blank lines are skipped; CRLF accepted.
The parsers check syntax only; every structural rule is `model`'s, run once
on the parsed object after the last line, and raised as a `ParseError` with
`validate`'s wording at the line of the element at fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import CWHypergraph, Hypergraph, HyperlapError, InvalidArgumentError, _faults


@dataclass(frozen=True)
class SourceLocation:
    line: int
    column: int
    excerpt: str

    def __str__(self):
        return f"line {self.line}, column {self.column}: {self.excerpt!r}"


class ParseError(HyperlapError):
    def __init__(self, message: str, location: SourceLocation):
        super().__init__(f"{message} at {location}")
        self.location = location


def _lines(text: str):
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, raw, line.split()


def _loc(lineno: int, raw: str) -> SourceLocation:
    stripped = raw.strip()
    col = raw.index(stripped[0]) + 1 if stripped else 1
    return SourceLocation(line=lineno, column=col, excerpt=raw.strip()[:60])


def _parse_int(token: str, what: str, loc: SourceLocation) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected integer for {what}, got {token!r}", loc) from None


def _checked(obj, where: dict):
    """obj, now marked as checked; or a `ParseError` at the earliest line
    that `where`, keyed like `model._issues`, gives an element at fault."""
    faults = [(where[key], issue.message) for key, issue in _faults(obj)]
    if faults:
        loc, message = min(faults, key=lambda fault: fault[0].line)
        raise ParseError(message, loc)
    return obj


def parse_hg(text: str) -> Hypergraph:
    n = None
    edges: list[tuple[int, ...]] = []
    names: list[str] = []
    where: dict = {}
    for lineno, raw, tokens in _lines(text):
        loc = _loc(lineno, raw)
        keyword = tokens[0]
        if keyword == "vertices":
            if n is not None:
                raise ParseError("duplicate 'vertices' line", loc)
            if len(tokens) != 2:
                raise ParseError("expected 'vertices <n>'", loc)
            n = _parse_int(tokens[1], "vertex count", loc)
            where[0] = loc
        elif keyword == "edge":
            if n is None:
                raise ParseError("'edge' before 'vertices'", loc)
            if len(tokens) < 3:
                raise ParseError("expected 'edge <name> <i1> <i2> ...'", loc)
            name = tokens[1]
            if name in names:
                raise ParseError(f"duplicate edge name {name!r}", loc)
            verts = [_parse_int(t, "vertex index", loc) for t in tokens[2:]]
            if len(set(verts)) != len(verts):
                raise ParseError("duplicate vertex within edge", loc)
            names.append(name)
            edges.append(tuple(sorted(verts)))
            where[len(edges)] = loc
        else:
            raise ParseError(f"unknown keyword {keyword!r}", loc)
    if n is None:
        raise ParseError("missing 'vertices' line", SourceLocation(1, 1, ""))
    return _checked(Hypergraph(n=n, edges=tuple(edges), edge_labels=tuple(names)), where)


def parse_cw(text: str) -> CWHypergraph:
    counts: list[int] = []
    incs: dict[int, list[tuple[int, int, int]]] = {}
    skels: dict[tuple[int, int], tuple[int, ...]] = {}
    where: dict = {}
    for lineno, raw, tokens in _lines(text):
        loc = _loc(lineno, raw)
        keyword = tokens[0]
        if keyword == "cells":
            if len(tokens) != 3:
                raise ParseError("expected 'cells <d> <count>'", loc)
            d = _parse_int(tokens[1], "dimension", loc)
            count = _parse_int(tokens[2], "cell count", loc)
            if d != len(counts):
                raise ParseError(
                    f"'cells' dimensions must ascend from 0; expected {len(counts)}, got {d}", loc
                )
            counts.append(count)
            where[d] = loc
        elif keyword == "inc":
            if len(tokens) != 5:
                raise ParseError("expected 'inc <d> <i> <j> <+1|-1>'", loc)
            d = _parse_int(tokens[1], "level", loc)
            i = _parse_int(tokens[2], "cell index", loc)
            j = _parse_int(tokens[3], "cell index", loc)
            if tokens[4] not in ("+1", "-1"):
                raise ParseError(f"sign must be +1 or -1, got {tokens[4]!r}", loc)
            s = 1 if tokens[4] == "+1" else -1
            if not 0 <= d <= len(counts) - 2:
                raise ParseError(f"incidence level {d} has no cells on both sides", loc)
            incs.setdefault(d, []).append((i, j, s))
            where[d, i, j] = loc
        elif keyword == "skel":
            if len(tokens) < 4:
                raise ParseError("expected 'skel <d> <j> <v1> <v2> ...'", loc)
            d = _parse_int(tokens[1], "dimension", loc)
            j = _parse_int(tokens[2], "cell index", loc)
            if (d, j) in skels:
                raise ParseError(f"duplicate 'skel' line for {d}-cell {j}", loc)
            skels[(d, j)] = tuple(sorted(_parse_int(t, "vertex index", loc) for t in tokens[3:]))
            where[d, j] = loc
        else:
            raise ParseError(f"unknown keyword {keyword!r}", loc)
    if not counts:
        raise ParseError("missing 'cells' lines", SourceLocation(1, 1, ""))
    incidences = tuple(tuple(incs.get(d, [])) for d in range(len(counts) - 1))
    return _checked(CWHypergraph(counts=tuple(counts), incidences=incidences, skeletons=skels), where)


def serialize(obj: Hypergraph | CWHypergraph) -> str:
    """Inverse of the parsers: parse(serialize(x)) == x, except for a
    hypergraph's vertex labels, which `.hg` cannot express; they come back
    as the defaults v1..vn. Edge labels are written as edge names, so each
    must be one token without `#`, used once; any other is refused."""
    out = []
    if isinstance(obj, Hypergraph):
        out.append(f"vertices {obj.n}")
        last = {name: j for j, name in enumerate(obj.edge_labels)}
        for j, (name, edge) in enumerate(zip(obj.edge_labels, obj.edges)):
            if name.split() != [name] or "#" in name or last[name] != j:
                raise InvalidArgumentError(f"edge label {name!r} cannot be written: one token without '#', used once")
            out.append(f"edge {name} " + " ".join(str(v) for v in edge))
    else:
        for d, count in enumerate(obj.counts):
            out.append(f"cells {d} {count}")
        for d, level in enumerate(obj.incidences):
            for i, j, s in level:
                out.append(f"inc {d} {i} {j} {'+1' if s == 1 else '-1'}")
        if obj.skeletons:
            for (d, j), verts in sorted(obj.skeletons.items()):
                out.append(f"skel {d} {j} " + " ".join(str(v) for v in verts))
    return "\n".join(out) + "\n"


# Figure 1: four vertices, six 2-element edges (the segments) and three
# 3-element edges (the shaded triangles).
_FIG1_EDGES = (
    (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
    (1, 3, 4), (1, 2, 4), (2, 3, 4),
)

# Figure 2: same cell structure graded by dimension. 1-cells are oriented
# from the lower-indexed to the higher-indexed endpoint (-1 at the tail,
# +1 at the head). The level-1 signs below are the assignment found by
# scripts/find_fig2_signs.py: it satisfies the three published sign facts
# (sgn(e6^1 in e1^2) = -1, displayed lower walk +1, displayed upper walk -1)
# and gives +1 for the length-1 upper signed sum from face 1 to face 3.
_FIG2_EDGE_VERTS = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))
_FIG2_FACE_VERTS = ((1, 3, 4), (1, 2, 4), (2, 3, 4))
_FIG2_LEVEL1 = (
    (2, 1, -1), (4, 1, 1), (6, 1, -1),
    (1, 2, 1), (4, 2, -1), (5, 2, 1),
    (3, 3, -1), (5, 3, 1), (6, 3, -1),
)


def _fig1() -> Hypergraph:
    return Hypergraph(n=4, edges=_FIG1_EDGES)


def _fig2() -> CWHypergraph:
    level0 = tuple(
        trip
        for j, (a, b) in enumerate(_FIG2_EDGE_VERTS, start=1)
        for trip in ((a, j, -1), (b, j, 1))
    )
    skels: dict[tuple[int, int], tuple[int, ...]] = {}
    for j, verts in enumerate(_FIG2_EDGE_VERTS, start=1):
        skels[(1, j)] = verts
    for j, verts in enumerate(_FIG2_FACE_VERTS, start=1):
        skels[(2, j)] = verts
    return CWHypergraph(counts=(4, 6, 3), incidences=(level0, _FIG2_LEVEL1),
                        skeletons=skels)


def builtin_fixture(name: str) -> Hypergraph | CWHypergraph:
    if name == "fig1":
        return _fig1()
    if name == "fig2":
        return _fig2()
    raise HyperlapError(f"unknown fixture {name!r} (known: fig1, fig2)")

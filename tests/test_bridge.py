"""A hypergraph is the one-level CW-hypergraph whose incidence signs are all
+1: every route, and the CLI on the two file formats, must answer alike."""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperlap import (CWHypergraph, Hypergraph, WalkQuery, count_walks, cross_check, cw_laplacian, d_incidence,
                      enum_signed_walks, enum_walks, hypergraph_laplacian, incidence, serialize, signed_count)
from hyperlap.cli import main


def as_cw(h):
    return CWHypergraph(counts=(h.n, h.m),
                        incidences=(tuple((v, j, 1) for j, e in enumerate(h.edges, start=1) for v in e),))


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(1, 4))
    vertex_sets = st.sets(st.integers(1, n), min_size=1).map(lambda e: tuple(sorted(e)))
    return Hypergraph(n=n, edges=tuple(draw(st.lists(vertex_sets, max_size=4))))


def stdout_of(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(h=hypergraphs(), query=st.tuples(st.booleans(), st.integers(1, 4), st.integers(1, 4), st.integers(0, 5)))
def test_a_hypergraph_is_its_one_level_cw_hypergraph(h, query):
    c = as_cw(h)
    for kind, signed_kind, size in (("vertex", "lower", h.n), ("edge", "upper", h.m)):
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                for k in range(4):
                    count = count_walks(h, WalkQuery(kind, i, j, k)).value
                    assert signed_count(c, WalkQuery(signed_kind, i, j, k, level=0)).value == count
                    walks = enum_walks(h, kind, i, j, k)
                    pairs = enum_signed_walks(c, 0, signed_kind, i, j, k)
                    assert [w.steps for w, _s in pairs] == [w.steps for w in walks]
                    assert all(s == 1 for _w, s in pairs)
    for parity in ("even", "odd"):
        assert cw_laplacian(c, 0, parity) == hypergraph_laplacian(h, parity)
    assert d_incidence(c, 0) == incidence(h)
    report, twin = cross_check(h, 3), cross_check(c, 3)
    assert report.ok and twin.ok and twin.checked == report.checked

    edge, i, j, k = query
    size = h.m if edge else h.n
    if size == 0:
        return
    frm, to, length = str(min(i, size)), str(min(j, size)), str(k)
    with tempfile.TemporaryDirectory() as tmp:
        hg, cw = os.path.join(tmp, "h.hg"), os.path.join(tmp, "c.cw")
        for path, obj in ((hg, h), (cw, c)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize(obj))
        plain = stdout_of("count", "--input", hg, "--kind", "edge" if edge else "vertex",
                          "--from", frm, "--to", to, "--length", length)
        signed = stdout_of("signed-count", "--input", cw, "--dim", "0", "--kind", "upper" if edge else "lower",
                           "--from", frm, "--to", to, "--length", length)
    assert plain[0] == 0
    assert signed == plain

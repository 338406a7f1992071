import dataclasses
import random
import re

import pytest

from hyperlap import CWHypergraph, Hypergraph, ParseError, builtin_fixture, parse_cw, parse_hg, serialize
from hyperlap.model import HyperlapError, InvalidArgumentError
from random_instances import random_cw, random_hypergraph


def test_parse_minimal_hg():
    h = parse_hg("vertices 2\nedge a 1 2\n")
    assert h.n == 2
    assert h.edges == ((1, 2),)
    assert h.edge_labels == ("a",)


def test_parse_fig1_emission(fig1):
    h = parse_hg(serialize(fig1))
    assert h.n == 4 and h.m == 9


def test_hg_vertex_out_of_range_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_hg("vertices 4\nedge a 1 5\n")


def test_hg_duplicate_vertex_in_edge():
    with pytest.raises(ParseError, match="duplicate vertex"):
        parse_hg("vertices 3\nedge a 1 1\n")


def test_hg_duplicate_edge_name():
    with pytest.raises(ParseError, match="duplicate edge name"):
        parse_hg("vertices 3\nedge a 1 2\nedge a 2 3\n")


def test_hg_unknown_keyword():
    with pytest.raises(ParseError, match="unknown keyword"):
        parse_hg("vertices 2\nfrob 1\n")


def test_hg_comments_and_crlf():
    h = parse_hg("# header\r\nvertices 2\r\nedge a 1 2  # trailing\r\n")
    assert h.edges == ((1, 2),)


def test_parse_minimal_cw():
    x = parse_cw("cells 0 2\ncells 1 1\ninc 0 1 1 +1\ninc 0 2 1 -1\n")
    assert x.counts == (2, 1)
    assert x.incidences == (((1, 1, 1), (2, 1, -1)),)


def test_cw_fig2_counts(fig2):
    x = parse_cw(serialize(fig2))
    assert x.counts == (4, 6, 3)
    assert len(x.incidences[0]) == 12
    assert len(x.incidences[1]) == 9


def test_cw_bad_sign_token():
    with pytest.raises(ParseError, match="sign"):
        parse_cw("cells 0 2\ncells 1 6\ninc 0 1 1 0\n")


def test_cw_duplicate_incidence():
    with pytest.raises(ParseError, match="duplicate"):
        parse_cw("cells 0 2\ncells 1 1\ninc 0 1 1 +1\ninc 0 1 1 -1\n")


def test_cw_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_cw("cells 0 2\ncells 1 1\ninc 0 3 1 +1\n")


def test_cw_dimensions_must_ascend():
    with pytest.raises(ParseError, match="ascend"):
        parse_cw("cells 1 2\n")


def test_serialize_empty_hypergraph():
    assert serialize(Hypergraph(n=1, edges=())) == "vertices 1\n"


def test_round_trip_fixtures(fig1, fig2):
    assert parse_hg(serialize(fig1)) == fig1
    assert parse_cw(serialize(fig2)) == fig2


def test_round_trip_empty_skeleton_map():
    x = CWHypergraph(counts=(2, 1), incidences=(((1, 1, 1),),), skeletons={})
    assert x.skeletons is None
    assert parse_cw(serialize(x)) == x


def test_round_trip_keeps_all_but_a_hypergraphs_vertex_labels():
    h = Hypergraph(n=3, edges=((1, 2), (2, 3)), vertex_labels=("a", "b", "c"), edge_labels=("x", "y"))
    back = parse_hg(serialize(h))
    # .hg has no syntax for vertex labels: they come back as the defaults
    assert back != h and back.vertex_labels == ("v1", "v2", "v3")
    # and that is all it leaves out
    assert back == dataclasses.replace(h, vertex_labels=())


@pytest.mark.parametrize("labels", [("a b",), ("a#b",), ("a", "a"), ("",)])
def test_serialize_refuses_an_edge_label_it_cannot_write_back(labels):
    # unchecked, "a b" and "a#b" gave text that does not parse, ("a", "a")
    # a duplicate edge name, and "" the line `edge  1 2`: another hypergraph
    h = Hypergraph(n=2, edges=((1, 2),) * len(labels), edge_labels=labels)
    with pytest.raises(InvalidArgumentError, match=re.escape(f"edge label {labels[-1]!r} cannot be written")):
        serialize(h)


def test_round_trip_random_instances():
    rng = random.Random(77)
    for _ in range(100):
        h = random_hypergraph(rng)
        assert parse_hg(serialize(h)) == h
    for _ in range(100):
        x = random_cw(rng)
        assert parse_cw(serialize(x)) == x


def test_fixture_fig1_shape(fig1):
    assert fig1.m == 9
    assert sorted(len(e) for e in fig1.edges) == [2] * 6 + [3] * 3


def test_fixture_fig2_published_sign(fig2):
    assert fig2.sign_table(1)[(6, 1)] == -1


def test_unknown_fixture():
    with pytest.raises(HyperlapError, match="unknown fixture"):
        builtin_fixture("fig3")

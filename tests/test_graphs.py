"""Port graphs: construction, labels, navigation, file formats."""

import pytest
from hypothesis import given, settings

from binox.catalog import complete_graph, cycle_graph, graph, path_graph
from binox.errors import GraphFormatError, UndefinedPort
from binox.graphs import (PortGraph, format_graph, format_vertex_map,
                          load_graph, parse_graph, parse_vertex_map)

from conftest import (graph_with_permutation, graph_with_vertex, relabel,
                      small_graphs, walk_ports)


# -- construction and validation ------------------------------------------------


def test_single_vertex_is_valid():
    g = PortGraph(1, [])
    assert g.n == 1 and g.degree(0) == 0


def test_rejects_self_loop():
    with pytest.raises(GraphFormatError, match="self-loop"):
        PortGraph(2, [(0, 0, 0, 1), (0, 1, 1, 0)])


def test_rejects_duplicate_edge():
    with pytest.raises(GraphFormatError, match="duplicate"):
        PortGraph(2, [(0, 1, 0, 0), (1, 0, 1, 1)])


def test_rejects_port_gap():
    # vertex 0 uses ports 0 and 2, skipping 1
    with pytest.raises(GraphFormatError, match="ports at vertex 0"):
        PortGraph(3, [(0, 1, 0, 0), (0, 2, 2, 0)])


def test_rejects_port_reuse():
    with pytest.raises(GraphFormatError, match="reused"):
        PortGraph(3, [(0, 1, 0, 0), (0, 2, 0, 0)])


def test_rejects_disconnected():
    with pytest.raises(GraphFormatError, match="disconnected"):
        PortGraph(4, [(0, 1, 0, 0), (2, 3, 0, 0)])


def test_huge_vertex_count_rejected_before_allocating(tmp_path):
    # a billion per-vertex tables would exhaust memory; too few edges to
    # connect that many vertices is caught first
    path = tmp_path / "huge.g"
    path.write_text("v 1000000000\n", encoding="utf-8")
    with pytest.raises(GraphFormatError, match="disconnected"):
        load_graph(str(path))
    with pytest.raises(GraphFormatError, match="disconnected"):
        PortGraph(10**9, [(0, 1, 0, 0)])


def test_rejects_vertex_out_of_range():
    with pytest.raises(GraphFormatError, match="out of range"):
        PortGraph(2, [(0, 5, 0, 0)])


@given(small_graphs())
def test_ports_are_contiguous(g):
    for v in g.vertices:
        ports = sorted(g.port_to(v, w) for w in g.neighbors(v))
        assert ports == list(range(g.degree(v)))


# -- binocular labels -------------------------------------------------------------


def test_edge_endpoint_labels_match():
    g = graph("p2")
    assert g.label(0) == g.label(1) == (1, (0,), ())


def test_triangle_label_records_neighbor_edge():
    g = graph("k3")
    deg, back, nn = g.label(0)
    assert deg == 2
    assert len(nn) == 1
    i, j, pij, pji = nn[0]
    assert (i, j) == (0, 1)
    wi, wj = g.neighbor(0, i), g.neighbor(0, j)
    assert g.port_to(wi, wj) == pij and g.port_to(wj, wi) == pji


def test_star_center_and_leaf_labels_differ():
    center = PortGraph(4, [(0, 1, 0, 0), (0, 2, 1, 0), (0, 3, 2, 0)])
    assert center.label(0)[0] == 3
    assert center.label(1)[0] == 1
    assert center.label(0) != center.label(1)


@given(graph_with_permutation())
@settings(max_examples=60)
def test_labels_invariant_under_port_isomorphism(gp):
    g, perm = gp
    h = relabel(g, perm)
    for v in g.vertices:
        assert g.label(v) == h.label(perm[v])


# -- navigation -------------------------------------------------------------------


def test_dest_around_consistent_triangle(k3):
    # catalog K3 numbers port 0 toward the successor at every vertex
    assert walk_ports(k3, 0, (0, 0, 0)) == 0


def test_dest_out_and_back_on_edge(p2):
    assert walk_ports(p2, 0, (0, 0)) == 0


def test_dest_raises_on_missing_port(p2):
    with pytest.raises(UndefinedPort):
        p2.neighbor(0, 1)


@given(small_graphs())
def test_every_edge_round_trips(g):
    for u, v, pu, pv in g.edges():
        assert g.neighbor(g.neighbor(u, pu), pv) == u
        assert g.neighbor(g.neighbor(v, pv), pu) == v


@given(graph_with_vertex())
@settings(max_examples=60)
def test_walk_label_and_reversal(gv):
    g, v = gv
    # greedy walk of length up to 3 via lowest ports
    walk = [v]
    for _ in range(3):
        here = walk[-1]
        if g.degree(here) == 0:
            break
        walk.append(g.neighbor(here, 0))
    for w in (walk, walk[::-1]):  # each port word leads along the walk
        word = [g.port_to(a, b) for a, b in zip(w, w[1:])]
        assert walk_ports(g, w[0], word) == w[-1]


# -- the radius-1 ball, as the label records it -----------------------------------


def test_ball_radius_one_in_c4_is_three_vertex_path(c4):
    deg, _back, nn = c4.label(0)
    assert deg == 2  # two neighbours...
    assert nn == ()  # ...not adjacent to each other: a 3-vertex path


def test_ball_beyond_diameter_is_whole_graph(k4):
    deg, _back, nn = k4.label(2)
    assert deg + 1 == k4.n
    assert deg + len(nn) == k4.edge_count()


def test_ball_ports_are_inherited(c4, k4):
    for g in (c4, k4):
        for v in g.vertices:
            _deg, back, nn = g.label(v)
            assert back == tuple(g.back_port(v, p) for p in range(g.degree(v)))
            for i, j, pij, pji in nn:
                wi, wj = g.neighbor(v, i), g.neighbor(v, j)
                assert (g.port_to(wi, wj), g.port_to(wj, wi)) == (pij, pji)


# -- graph file format --------------------------------------------------------------


@given(small_graphs())
def test_graph_text_round_trip(g):
    assert parse_graph(format_graph(g)) == g


def test_parse_accepts_comments_and_blanks():
    text = "# triangle\n\nv 3\ne 0 1 0 0  # first\ne 0 2 1 0\ne 1 2 1 1\n"
    assert parse_graph(text).n == 3


def test_parse_reports_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("v 2\nq 0 1\n")
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_parse_rejects_edge_before_header():
    with pytest.raises(GraphFormatError, match="before vertex-count"):
        parse_graph("e 0 1 0 0\nv 2\n")


def test_parse_rejects_missing_header():
    with pytest.raises(GraphFormatError, match="missing vertex-count"):
        parse_graph("# nothing\n")


def test_parse_rejects_malformed_edge():
    with pytest.raises(GraphFormatError) as err:
        parse_graph("v 2\ne 0 1 0\n")
    assert err.value.line == 2


# -- vertex map format -----------------------------------------------------------


def test_vertex_map_round_trip(p2, k3):
    f = {0: 2, 1: 0}
    assert parse_vertex_map(format_vertex_map(f), p2, k3) == f


def test_vertex_map_requires_totality(k3, p2):
    with pytest.raises(GraphFormatError, match="not total"):
        parse_vertex_map("m 0 0\nm 1 1\n", k3, p2)


def test_vertex_map_rejects_double_mapping(p2, k3):
    with pytest.raises(GraphFormatError, match="mapped twice"):
        parse_vertex_map("m 0 0\nm 0 1\nm 1 1\n", p2, k3)


def test_vertex_map_range_check(p2, k3):
    with pytest.raises(GraphFormatError, match="out of range"):
        parse_vertex_map("m 0 7\nm 1 0\n", p2, k3)


# -- catalog builders used everywhere else ----------------------------------------


def test_builders_agree_with_direct_construction():
    assert path_graph(2) == graph("p2")
    assert cycle_graph(4) == graph("c4")
    assert complete_graph(3).n == 3

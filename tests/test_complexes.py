"""Clique complexes, simplicial maps, and the two covering notions."""

from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings

from binox import complexes
from binox.catalog import cycle_graph, graph, vertex_map
from binox.complexes import (clique_complex, coverings_agree,
                             is_graph_covering, is_simplicial_covering,
                             is_simplicial_map)
from binox.enumeration import canonical_graphs
from binox.errors import BudgetExceeded, NotSimplicial
from binox.graphs import PortGraph

from conftest import all_canonical, small_graphs

K3_COMPLEX = "0\n1\n2\n0 1\n0 2\n1 2\n0 1 2\n"  # one simplex a line

# the two port classes of the triangle: same underlying complex, no
# port-preserving map between them
K3_A = PortGraph(3, [(0, 1, 0, 0), (0, 2, 1, 0), (1, 2, 1, 1)])
K3_B = PortGraph(3, [(0, 1, 0, 0), (0, 2, 1, 1), (1, 2, 1, 0)])


# -- enumeration -------------------------------------------------------------------


def count_by_dim(cx):
    return Counter(len(s) - 1 for s in cx.simplices)


def test_triangle_counts(k3):
    assert count_by_dim(clique_complex(k3)) == {0: 3, 1: 3, 2: 1}


def test_square_has_no_triangles(c4):
    cx = clique_complex(c4)
    assert cx.dimension == 1
    assert count_by_dim(cx) == {0: 4, 1: 4}


def test_octahedron_is_a_pure_surface():
    cx = clique_complex(graph("octahedron"))
    assert count_by_dim(cx) == {0: 6, 1: 12, 2: 8}


def test_k4_has_a_solid_tetrahedron(k4):
    cx = clique_complex(k4)
    assert cx.dimension == 3
    assert count_by_dim(cx) == {0: 4, 1: 6, 2: 4, 3: 1}


def test_simplex_cap_is_enforced(k4, monkeypatch):
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 5)
    with pytest.raises(BudgetExceeded):
        clique_complex(k4)


def test_simplex_cap_error_says_what_was_capped(k4, monkeypatch):
    monkeypatch.setattr(complexes, "SIMPLEX_BUDGET", 5)
    with pytest.raises(BudgetExceeded) as info:
        clique_complex(k4)
    exc = info.value
    assert (exc.what, exc.cap, exc.reached) == ("simplices", 5, 6)
    assert str(exc) == "more than 5 simplices"


@given(small_graphs())
@settings(max_examples=40)
def test_faces_of_simplices_are_simplices(g):
    cx = clique_complex(g)
    for s in cx.simplices:
        for r in range(1, len(s)):
            for face in combinations(s, r):
                assert face in cx.simplices


@given(small_graphs())
@settings(max_examples=40)
def test_skeleton_matches_graph(g):
    cx = clique_complex(g)
    assert {s[0] for s in cx.simplices if len(s) == 1} == set(g.vertices)
    assert ({s for s in cx.simplices if len(s) == 2}
            == {(min(u, v), max(u, v)) for u, v, _, _ in g.edges()})


@given(small_graphs())
@settings(max_examples=25)
def test_simplices_are_exactly_the_cliques(g):
    cx = clique_complex(g)
    for r in range(1, g.n + 1):
        for sub in combinations(range(g.n), r):
            is_clique = all(g.has_edge(u, v) for u, v in combinations(sub, 2))
            assert (sub in cx.simplices) == is_clique


def test_star_and_triangle_lookups(k4):
    cx = clique_complex(k4)
    assert all(0 in s for s in cx.star(0))
    assert len(cx.star(0)) == 8  # 1 vertex + 3 edges + 3 triangles + 1 tetra
    assert cx.thirds[0, 1] == cx.thirds[1, 0] == ((2,), (3,))
    assert cx.triangle_pairs[2] == ((0, 1), (1, 0), (0, 3), (3, 0),
                                    (1, 3), (3, 1))
    assert cx.back_steps[0] == tuple((w,) for w in k4.neighbors(0))
    assert (0, 1, 0) in cx.backtracks and (0, 0, 0) not in cx.backtracks
    assert (0, 1, 2) in cx.triangle_paths
    assert (0, 1, 0) not in cx.triangle_paths
    assert (0, 1, 2, 0) in cx.triangle_circuits
    assert (0, 1, 2, 3) not in cx.triangle_circuits


def test_move_tables_follow_the_triangles():
    # c4 has no triangles: backtracks only
    cx = clique_complex(graph("c4"))
    assert not cx.thirds and not cx.triangle_paths
    assert not cx.triangle_circuits
    assert cx.triangle_pairs == ((),) * 4
    assert len(cx.backtracks) == 8


# -- simplicial maps ----------------------------------------------------------------


def test_identity_is_simplicial(k3):
    cx = clique_complex(k3)
    assert is_simplicial_map({v: v for v in k3.vertices}, cx, cx)


def test_collapse_to_a_vertex_is_simplicial(k4, p2):
    assert is_simplicial_map({v: 0 for v in k4.vertices},
                             clique_complex(k4), clique_complex(p2))


def test_edge_to_non_edge_is_not_simplicial():
    p3 = graph("p3")
    cx = clique_complex(p3)
    assert not is_simplicial_map({0: 0, 1: 2, 2: 1}, cx, cx)


def test_partial_map_rejected(k3):
    cx = clique_complex(k3)
    with pytest.raises(NotSimplicial):
        is_simplicial_map({0: 0, 1: 1}, cx, cx)


# -- simplicial coverings ------------------------------------------------------------


def test_identity_is_a_simplicial_covering(k4):
    cx = clique_complex(k4)
    assert is_simplicial_covering({v: v for v in k4.vertices}, cx, cx)


def test_folding_c6_onto_triangle_is_not_a_covering():
    f, src, dst = vertex_map("c6_to_k3")
    assert not is_simplicial_covering(f, clique_complex(src),
                                      clique_complex(dst))


def test_double_cover_of_rp2_is_a_simplicial_covering():
    f, src, dst = vertex_map("rp2_cover_to_rp2")
    assert is_simplicial_covering(f, clique_complex(src), clique_complex(dst))


def test_covering_test_requires_simplicial_map():
    p3 = graph("p3")
    cx = clique_complex(p3)
    with pytest.raises(NotSimplicial):
        is_simplicial_covering({0: 0, 1: 2, 2: 1}, cx, cx)


def stars_biject(f, src, dst):
    """The star-bijection half of is_simplicial_covering, ports ignored."""
    for v in src.graph.vertices:
        images = [tuple(sorted({f[x] for x in s})) for s in src.star(v)]
        if len(set(images)) != len(images) or set(images) != dst.star(f[v]):
            return False
    return True


def test_port_blind_test_accepts_port_breaking_triangle_map():
    ident = {0: 0, 1: 1, 2: 2}
    ka, kb = clique_complex(K3_A), clique_complex(K3_B)
    assert stars_biject(ident, ka, kb)
    assert not is_simplicial_covering(ident, ka, kb)
    assert not is_graph_covering(ident, K3_A, K3_B)


def test_port_blind_test_accepts_square_reflection(c4):
    refl = {i: (4 - i) % 4 for i in range(4)}
    cx = clique_complex(c4)
    assert stars_biject(refl, cx, cx)
    assert not is_simplicial_covering(refl, cx, cx)
    assert not is_graph_covering(refl, c4, c4)


# -- graph coverings -----------------------------------------------------------------


def test_wrapping_c8_around_c4_is_a_covering():
    f, src, dst = vertex_map("c8_to_c4")
    assert is_graph_covering(f, src, dst)
    fibers = {v: [u for u in src.vertices if f[u] == v] for v in dst.vertices}
    assert all(len(fib) == 2 for fib in fibers.values())
    assert set(f.values()) == set(dst.vertices)


def test_folding_c6_onto_triangle_is_not_a_graph_covering():
    f, src, dst = vertex_map("c6_to_k3")
    assert not is_graph_covering(f, src, dst)


def test_identity_covering_from_catalog():
    f, src, dst = vertex_map("k4_identity")
    assert is_graph_covering(f, src, dst)


# -- the two notions agree ------------------------------------------------------------


def test_definitions_agree_on_catalog_maps():
    for name, want in (("c8_to_c4", True), ("c6_to_k3", False),
                       ("rp2_cover_to_rp2", True), ("k4_identity", True)):
        f, src, dst = vertex_map(name)
        assert coverings_agree(f, src, dst) is want


def test_definitions_agree_on_every_small_map():
    graphs = all_canonical(3)
    hits = 0
    for src, dst in product(graphs, repeat=2):
        for images in product(range(dst.n), repeat=src.n):
            f = dict(enumerate(images))
            if coverings_agree(f, src, dst):
                hits += 1
    assert hits > 0  # identities at minimum


# -- golden ----------------------------------------------------------------------------


def test_complex_serialization_golden(k3):
    golden = {tuple(map(int, line.split())) for line in K3_COMPLEX.splitlines()}
    assert clique_complex(k3).simplices == golden

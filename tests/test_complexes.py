"""Clique complexes, simplicial maps, and the two covering notions."""

import random
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings

from binox import complexes
from binox.catalog import ENTRIES, MAPS, graph, vertex_map
from binox.complexes import (CliqueComplex, clique_complex, coverings_agree,
                             is_graph_covering, is_simplicial_covering)
from binox.cover import universal_cover
from binox.errors import BudgetExceeded, NotSimplicial
from binox.graphs import PortGraph, load_graph, load_vertex_map, port_map

from conftest import all_canonical, small_graphs

CATALOG = Path(__file__).resolve().parent.parent / "catalog"

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
    assert all(0 in s for s in cx.stars[0])
    assert len(cx.stars[0]) == 8  # 1 vertex + 3 edges + 3 triangles + 1 tetra
    assert cx.star_sets[0] == frozenset(cx.stars[0])
    assert cx.by_dim[2] == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert cx.by_dim[3] == ((0, 1, 2, 3),)
    assert cx.edge_ports == tuple(k4.edges())
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
    assert is_simplicial_covering({v: v for v in k3.vertices}, cx, cx)


def test_collapse_to_a_vertex_is_simplicial(k4, p2):
    # simplicial, so no NotSimplicial; not a covering
    assert not is_simplicial_covering({v: 0 for v in k4.vertices},
                                      clique_complex(k4), clique_complex(p2))


def test_edge_to_non_edge_is_not_simplicial():
    p3 = graph("p3")
    cx = clique_complex(p3)
    with pytest.raises(NotSimplicial,
                       match="^map is not simplicial; star test undefined$"):
        is_simplicial_covering({0: 0, 1: 2, 2: 1}, cx, cx)


def test_partial_map_rejected(k3):
    cx = clique_complex(k3)
    with pytest.raises(NotSimplicial, match="^map undefined on vertex 2$"):
        is_simplicial_covering({0: 0, 1: 1}, cx, cx)


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
    for v, star in enumerate(src.stars):
        images = [tuple(sorted({f[x] for x in s})) for s in star]
        if (len(set(images)) != len(images)
                or set(images) != dst.star_sets[f[v]]):
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


# -- the table-driven check against the literal definition ---------------------------


def literal_star(cx, v):
    return frozenset(s for s in cx.simplices if v in s)


def literal_is_simplicial_map(f, src, dst):
    """Does f send every simplex of src onto a simplex of dst?"""
    for u in src.graph.vertices:
        if u not in f:
            raise NotSimplicial(f"map undefined on vertex {u}")
        if not 0 <= f[u] < dst.graph.n:
            raise NotSimplicial(f"image {f[u]} of vertex {u} out of range")
    return all(tuple(sorted({f[v] for v in s})) in dst.simplices
               for s in src.simplices)


def literal_is_simplicial_covering(f, src, dst):
    """Each star maps bijectively onto the image's star, ports preserved."""
    if not literal_is_simplicial_map(f, src, dst):
        raise NotSimplicial("map is not simplicial; star test undefined")
    for v in src.graph.vertices:
        images = [tuple(sorted({f[x] for x in s}))
                  for s in literal_star(src, v)]
        if len(set(images)) != len(images):
            return False
        if set(images) != literal_star(dst, f[v]):
            return False
    port_to = dst.graph.port_to
    for u, v, pu, pv in src.graph.edges():
        if port_to(f[u], f[v]) != pu or port_to(f[v], f[u]) != pv:
            return False
    return True


def verdict(check, f, src, dst):
    """True, False, or the NotSimplicial message."""
    try:
        return check(f, src, dst)
    except NotSimplicial as exc:
        return str(exc)


def assert_same_verdicts(maps, src, dst):
    """Compare both checks on every map; returns the verdict counts."""
    counts = Counter()
    for f in maps:
        want = verdict(literal_is_simplicial_covering, f, src, dst)
        got = verdict(is_simplicial_covering, f, src, dst)
        assert got == want, (f, src.graph, dst.graph)
        counts[want if isinstance(want, bool) else "not simplicial"] += 1
    return counts


def graph_coverings(src, dst):
    """Every map is_graph_covering accepts; port commutation pins it by
    the image of vertex 0."""
    maps = (port_map(src, 0, dst, b) for b in dst.vertices)
    return [f for f in maps if f is not None and is_graph_covering(f, src, dst)]


def test_star_tables_are_the_literal_stars():
    for g in all_canonical(4):
        cx = clique_complex(g)
        for v in g.vertices:
            assert len(cx.stars[v]) == len(cx.star_sets[v])
            assert cx.star_sets[v] == frozenset(cx.stars[v])
            assert cx.star_sets[v] == literal_star(cx, v)
        assert sum(map(len, cx.by_dim)) == len(cx.simplices)
        assert {s for ds in cx.by_dim for s in ds} == cx.simplices


def test_covering_check_matches_literal_definition_on_small_maps():
    """Every map from 1-3 vertices, and from 4 vertices a fixed 1/16 of
    the maps plus every covering, into every graph on <= 4 vertices."""
    graphs = all_canonical(4)
    complexes = [clique_complex(g) for g in graphs]
    rng = random.Random(1729)
    total = Counter()
    for (a, ka), (b, kb) in product(zip(graphs, complexes), repeat=2):
        covers = {tuple(f[v] for v in a.vertices)
                  for f in graph_coverings(a, b)}
        maps = [dict(enumerate(im))
                for im in product(range(b.n), repeat=a.n)
                if a.n < 4 or im in covers or rng.random() < 1 / 16]
        total += assert_same_verdicts(maps, ka, kb)
    assert total[True] == 160  # the covering sweep's count
    assert total[False] > 0 and total["not simplicial"] > 0


def test_covering_check_matches_literal_definition_on_catalog():
    for m in MAPS:
        src = load_graph(CATALOG / f"{m.src}.g")
        dst = load_graph(CATALOG / f"{m.dst}.g")
        path = CATALOG / f"{m.name.replace('_', '-')}.map"
        f = load_vertex_map(path, src, dst)
        got = assert_same_verdicts([f], clique_complex(src),
                                   clique_complex(dst))
        assert got == {m.expected_covering: 1}, m.name
    for e in ENTRIES:
        if e.expected_kind == "exceeds_budget":
            continue
        g = e.build()
        res = universal_cover(g, verify=False)
        got = assert_same_verdicts([res.projection], clique_complex(res.cover),
                                   clique_complex(g))
        assert got == {True: 1}, e.name


def test_every_dimension_is_looked_up_in_the_target(k3, k4):
    # on clique complexes a triangle's image is a simplex once its edges'
    # are, so hollow targets are needed to see each dimension checked
    for g in (k3, k4):
        cx = clique_complex(g)
        hollow = CliqueComplex(g, frozenset(
            s for s in cx.simplices if len(s) < g.n))
        maps = [dict(enumerate(im)) for im in product(g.vertices, repeat=g.n)]
        got = assert_same_verdicts(maps, cx, hollow)
        assert got["not simplicial"] > 0, g


@pytest.mark.parametrize("f", [
    {}, {0: 0, 1: 1}, {0: 0, 2: 2}, {1: 1, 2: 2, 3: 0},
    {0: 0, 1: 1, 2: 3}, {0: -1, 1: 1, 2: 2}, {0: 0, 1: 7},
])
def test_bad_maps_give_the_literal_message(k3, f):
    cx = clique_complex(k3)
    want = verdict(literal_is_simplicial_covering, f, cx, cx)
    assert isinstance(want, str)
    assert verdict(is_simplicial_covering, f, cx, cx) == want


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

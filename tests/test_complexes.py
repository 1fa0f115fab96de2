"""Clique complexes, simplicial maps, and the two covering notions."""

import random
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings

from binox import complexes
from binox.catalog import ENTRIES, MAPS, graph, vertex_map
from binox.complexes import (clique_complex, coverings_agree,
                             is_graph_covering, is_simplicial_covering)
from binox.cover import universal_cover
from binox.errors import BudgetExceeded, NotSimplicial
from binox.graphs import PortGraph, load_graph, load_vertex_map, port_map
from binox.homotopy import _edge_stationary_counts, _scan

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


def scanned(loop, cx, name):
    """The positions of one move kind in the loop's unbounded scan."""
    e, s = _edge_stationary_counts(loop)
    return dict((kind.name, found)
                for kind, found in _scan(loop, cx, False, None, e, s)
                ).get(name, [])


def test_star_and_triangle_lookups(k4):
    cx = clique_complex(k4)
    assert cx.by_dim[2] == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    assert cx.by_dim[3] == ((0, 1, 2, 3),)
    assert cx.edge_ports == tuple(k4.edges())
    assert cx.thirds[0, 1] == cx.thirds[1, 0] == ((2,), (3,))
    assert cx.triangle_pairs[2] == ((0, 1), (1, 0), (0, 3), (3, 0),
                                    (1, 3), (3, 1))
    assert cx.back_steps[0] == tuple((w,) for w in k4.neighbors(0))
    assert (0, 1, 2) in cx.triangle_paths
    assert (0, 1, 0) not in cx.triangle_paths
    # the scan reads deletions off a closed walk's vertices alone: a
    # backtrack leaves and returns, a triangle circuit visits three
    # distinct vertices
    assert scanned((0, 1, 0), cx, "delete_backtrack") == [0]
    assert scanned((0, 0, 0), cx, "delete_backtrack") == []
    assert scanned((0, 1, 2, 0, 3, 1, 0), cx, "delete_triangle") == [0, 3]
    assert scanned((0, 1, 1, 0), cx, "delete_triangle") == []
    assert scanned((0, 1, 0, 0), cx, "delete_triangle") == []


def test_move_tables_follow_the_triangles():
    # c4 has no triangles: backtracks only
    c4 = graph("c4")
    cx = clique_complex(c4)
    assert not cx.thirds and not cx.triangle_paths
    assert cx.triangle_pairs == ((),) * 4
    assert scanned((0, 1, 0, 3, 0), cx, "delete_backtrack") == [0, 2]
    assert scanned((0, 1, 0, 3, 0), cx, "delete_triangle") == []
    assert sum(len(scanned((u, w, u), cx, "delete_backtrack"))
               for u in c4.vertices for w in c4.neighbors(u)) == 8


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


def test_folded_neighbors_fail_the_link_test_alone(p2, monkeypatch):
    # p3's centre has two neighbors, both sent to p2's vertex 1: the map
    # is simplicial and onto every neighborhood but not injective on the
    # centre's.  The port check would reject it too, so the verdict must
    # come before any port is read.
    src, dst = clique_complex(graph("p3")), clique_complex(p2)
    calls = []
    port_to = PortGraph.port_to

    def counting(self, u, v):
        calls.append((u, v))
        return port_to(self, u, v)

    monkeypatch.setattr(PortGraph, "port_to", counting)
    assert not is_simplicial_covering({0: 1, 1: 0, 2: 1}, src, dst)
    assert calls == []


def test_covering_test_requires_simplicial_map():
    p3 = graph("p3")
    cx = clique_complex(p3)
    with pytest.raises(NotSimplicial):
        is_simplicial_covering({0: 0, 1: 2, 2: 1}, cx, cx)


def stars_biject(f, src, dst):
    """The star-bijection half of is_simplicial_covering, ports ignored."""
    for v in src.graph.vertices:
        images = [tuple(sorted({f[x] for x in s}))
                  for s in literal_star(src, v)]
        if (len(set(images)) != len(images)
                or set(images) != literal_star(dst, f[v])):
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
        if type(f[u]) is not int:
            raise NotSimplicial(f"image {f[u]!r} of vertex {u} is not an int")
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
            triangles = sum(len(s) == 3 for s in literal_star(cx, v))
            assert len(cx.triangle_pairs[v]) // 2 == triangles
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


def perturbations(f, dst, rng):
    """Three copies of f with one vertex reassigned, then three with the
    images of two vertices, not always distinct, swapped."""
    out = []
    for _ in range(3):
        u = rng.randrange(len(f))
        out.append({**f, u: rng.randrange(dst.n)})
    for _ in range(3):
        u, v = rng.randrange(len(f)), rng.randrange(len(f))
        out.append({**f, u: f[v], v: f[u]})
    return out


def test_covering_check_matches_literal_definition_on_catalog():
    """Each catalog map and finite universal cover projection, and seeded
    perturbations of each."""
    rng = random.Random(2015)
    total = Counter()
    for m in MAPS:
        src = load_graph(CATALOG / f"{m.src}.g")
        dst = load_graph(CATALOG / f"{m.dst}.g")
        path = CATALOG / f"{m.name.replace('_', '-')}.map"
        f = load_vertex_map(path, src, dst)
        ks, kd = clique_complex(src), clique_complex(dst)
        got = assert_same_verdicts([f], ks, kd)
        assert got == {m.expected_covering: 1}, m.name
        total += assert_same_verdicts(perturbations(f, dst, rng), ks, kd)
    for e in ENTRIES:
        if e.expected_kind == "exceeds_budget":
            continue
        g = e.build()
        res = universal_cover(g, verify=False)
        ks, kd = clique_complex(res.cover), clique_complex(g)
        got = assert_same_verdicts([res.projection], ks, kd)
        assert got == {True: 1}, e.name
        total += assert_same_verdicts(perturbations(res.projection, g, rng),
                                      ks, kd)
    assert total[True] > 0 and total[False] > 0
    assert total["not simplicial"] > 0


# -- the label-based graph covering check against the per-port one -----------------


def literal_is_graph_covering(f, src, dst):
    """``is_graph_covering`` before it read degrees and back ports from
    the labels: degree, neighbor and back port per port, then the label."""
    for u in src.vertices:
        if u not in f:
            raise NotSimplicial(f"map undefined on vertex {u}")
        if type(f[u]) is not int:
            raise NotSimplicial(f"image {f[u]!r} of vertex {u} is not an int")
        if not 0 <= f[u] < dst.n:
            raise NotSimplicial(f"image {f[u]} of vertex {u} out of range")
    for u in src.vertices:
        fu = f[u]
        if src.degree(u) != dst.degree(fu):
            return False
        for p in range(src.degree(u)):
            if f[src.neighbor(u, p)] != dst.neighbor(fu, p):
                return False
            if src.back_port(u, p) != dst.back_port(fu, p):
                return False
        if src.label(u) != dst.label(fu):
            return False
    return True


def same_graph_verdicts(maps, src, dst):
    """Compare both graph covering checks on every map; verdict counts."""
    counts = Counter()
    for f in maps:
        want = verdict(literal_is_graph_covering, f, src, dst)
        assert verdict(is_graph_covering, f, src, dst) == want, (f, src, dst)
        counts[want if isinstance(want, bool) else "not total"] += 1
    return counts


def broken_maps(src, dst):
    """A map missing src's last vertex, and two sending it out of range."""
    last = src.n - 1
    zero = dict.fromkeys(range(last), 0)
    return [zero, {**zero, last: dst.n}, {**zero, last: -1}]


def test_graph_covering_check_matches_per_port_check_on_small_maps():
    """Every map from each graph on <= 3 vertices into each graph on <= 4,
    a seeded 1/16 of the maps from 4-vertex graphs, and broken maps."""
    graphs = all_canonical(4)
    rng = random.Random(4099)
    total = Counter()
    for a, b in product(graphs, repeat=2):
        maps = [dict(enumerate(im))
                for im in product(range(b.n), repeat=a.n)
                if a.n < 4 or rng.random() < 1 / 16]
        total += same_graph_verdicts(maps + broken_maps(a, b), a, b)
    assert total[True] > 0 and total[False] > 0
    assert total["not total"] == 3 * len(graphs) ** 2


def test_graph_covering_check_matches_per_port_check_on_catalog():
    for m in MAPS:
        f, src, dst = vertex_map(m.name)
        got = same_graph_verdicts([f], src, dst)
        assert got == {m.expected_covering: 1}, m.name
        same_graph_verdicts(broken_maps(src, dst), src, dst)
    for e in ENTRIES:
        if e.expected_kind != "exceeds_budget":
            g = e.build()
            res = universal_cover(g, verify=False)
            assert same_graph_verdicts([res.projection], res.cover, g) == {
                True: 1}, e.name


def test_edges_on_edges_or_vertices_make_a_simplicial_map(k3, k4):
    # on clique complexes a clique's image is a simplex once its edges'
    # are, which is all that is_simplicial_covering checks
    for g, cx in ((k3, clique_complex(k3)), (k4, clique_complex(k4))):
        for h in all_canonical(4):
            kh = clique_complex(h)
            for im in product(h.vertices, repeat=g.n):
                f = dict(enumerate(im))
                edges_land = all(f[u] == f[v] or h.has_edge(f[u], f[v])
                                 for u, v, _, _ in g.edges())
                assert edges_land == literal_is_simplicial_map(f, cx, kh)
                got = verdict(is_simplicial_covering, f, cx, kh)
                assert (got == "map is not simplicial; star test undefined"
                        ) == (not edges_land), (f, h)


@pytest.mark.parametrize("f", [
    {}, {0: 0, 1: 1}, {0: 0, 2: 2}, {1: 1, 2: 2, 3: 0},
    {0: 0, 1: 1, 2: 3}, {0: -1, 1: 1, 2: 2}, {0: 0, 1: 7},
    {0: 0, 1: 1, 2: 2.0}, {0: 0, 1: 1, 2: "2"}, {0: True, 1: 1, 2: 2},
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


def test_definitions_agree_on_partial_and_out_of_range_maps():
    f, src, dst = vertex_map("c8_to_c4")
    del f[3]
    assert coverings_agree(f, src, dst) is False
    f[3] = 7  # c4 has vertices 0..3
    assert coverings_agree(f, src, dst) is False
    with pytest.raises(NotSimplicial, match="out of range$"):
        is_graph_covering(f, src, dst)
    for bad in (3.0, "3"):
        f[3] = bad
        assert coverings_agree(f, src, dst) is False
        with pytest.raises(NotSimplicial, match="is not an int$"):
            is_graph_covering(f, src, dst)


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

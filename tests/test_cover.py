"""Universal-cover development, classification, and isomorphism."""

from itertools import permutations

import pytest
from hypothesis import given, settings

from binox.catalog import ENTRIES, graph
from binox.complexes import coverings_agree, is_graph_covering
from binox.config import Budgets
from binox.cover import classify, isomorphism, universal_cover

from conftest import all_canonical, graph_with_permutation, relabel, small_graphs

TIGHT = Budgets(cover_vertices=100)


# -- development --------------------------------------------------------------------


def test_tree_is_its_own_cover():
    t = graph("tree7")
    res = universal_cover(t)
    assert res.finite and res.sheets == 1
    assert isomorphism(res.cover, t) is not None
    assert res.projection == {v: v for v in t.vertices}


def test_triangle_is_simply_connected(k3):
    res = universal_cover(k3)
    assert res.finite and res.sheets == 1 and res.cover.n == 3


@pytest.mark.parametrize("base", [-1, 3, True, 1.0])
def test_base_outside_the_graph_is_rejected(base):
    with pytest.raises(ValueError, match=f"base {base} .*3-vertex"):
        universal_cover(graph("p3"), base)


@pytest.mark.parametrize("name, cap", [
    ("cover_vertices", -5), ("search_states", -1), ("cover_vertices", True),
    ("search_states", 1.5), ("cover_vertices", None),
])
def test_budget_caps_are_ints_from_zero(name, cap):
    with pytest.raises(ValueError, match=f"{name} must be an int >= 0, got"):
        Budgets(**{name: cap})


def test_zero_caps_stay_valid():
    res = universal_cover(graph("p3"), budgets=Budgets(0, 0))
    assert (res.status, res.explored) == ("budget_exceeded", 0)


def test_square_development_never_closes(c4):
    res = universal_cover(c4, budgets=TIGHT)
    assert res.status == "budget_exceeded"
    assert res.cover is None and res.sheets is None
    assert res.explored == 100


def test_c5_development_never_closes():
    res = universal_cover(graph("c5"), budgets=Budgets(cover_vertices=200))
    assert not res.finite
    assert res.explored == 200


@pytest.mark.parametrize("e", [e for e in ENTRIES
                               if e.expected_kind != "exceeds_budget"],
                         ids=lambda e: e.name)
def test_the_budget_counts_every_lifted_vertex(e):
    g = e.build()
    n = e.expected_sheets * g.n
    short = universal_cover(g, verify=False,
                            budgets=Budgets(cover_vertices=n - 1))
    assert short.status == "budget_exceeded" and short.explored == n - 1
    exact = universal_cover(g, verify=False, budgets=Budgets(cover_vertices=n))
    assert exact.finite and exact.explored == n


def test_projective_plane_has_a_double_cover():
    res = universal_cover(graph("rp2"))
    assert res.finite
    assert res.sheets == 2
    assert res.cover.n == 22
    assert coverings_agree(res.projection, res.cover, graph("rp2"))


def test_sphere_is_simply_connected():
    res = universal_cover(graph("rp2_cover"))
    assert res.finite and res.sheets == 1 and res.cover.n == 22


def test_triangulated_surfaces_develop_cleanly():
    for name in ("octahedron", "icosahedron", "chordal6"):
        res = universal_cover(graph(name))
        assert res.finite and res.sheets == 1, name


def test_verify_flag_skips_audit_only(k3):
    a = universal_cover(k3, verify=False)
    b = universal_cover(k3, verify=True)
    assert a.cover.encoding() == b.cover.encoding()
    assert a.projection == b.projection


@given(small_graphs())
@settings(max_examples=50, deadline=None)
def test_finite_developments_are_coverings(g):
    res = universal_cover(g, budgets=Budgets(cover_vertices=60))
    if not res.finite:
        return
    assert is_graph_covering(res.projection, res.cover, g)
    assert res.cover.n == res.sheets * g.n
    assert set(res.projection.values()) == set(g.vertices)


def test_development_idempotence_on_catalog():
    for name in ("k1", "p2", "tree7", "k3", "k4", "octahedron",
                 "icosahedron", "rp2"):
        first = universal_cover(graph(name))
        again = universal_cover(first.cover)
        assert again.finite and again.sheets == 1, name
        assert isomorphism(again.cover, first.cover) is not None, name


def test_basepoint_independence_on_catalog():
    for name in ("p3", "k3", "k4", "octahedron", "rp2"):
        g = graph(name)
        base0 = universal_cover(g, 0)
        for b in list(g.vertices)[1:]:
            res = universal_cover(g, b)
            assert res.sheets == base0.sheets, name
            assert isomorphism(res.cover, base0.cover) is not None, name


# -- classification -----------------------------------------------------------------


def test_classify_buckets(k3, k4, c4):
    assert classify(k3).kind == "simply_connected"
    assert classify(k4) == classify(k4)
    assert classify(c4, TIGHT).kind == "exceeds_budget"
    got = classify(graph("rp2"))
    assert (got.kind, got.sheets, got.cover_size) == ("finite_cover", 2, 22)


def test_classify_reports_cover_size(p2):
    got = classify(p2)
    assert (got.kind, got.sheets, got.cover_size) == ("simply_connected", 1, 2)


# -- isomorphism --------------------------------------------------------------------


@given(graph_with_permutation())
@settings(max_examples=60)
def test_relabeled_copies_are_isomorphic(gp):
    g, perm = gp
    h = relabel(g, perm)
    f = isomorphism(g, h)
    assert f is not None
    assert is_graph_covering(f, g, h)
    assert sorted(f.values()) == list(g.vertices)


def test_triangle_port_classes_are_not_isomorphic():
    from binox.enumeration import canonical_graphs
    tri_a, tri_b = [g for g in canonical_graphs(3) if g.edge_count() == 3]
    assert isomorphism(tri_a, tri_b) is None
    assert isomorphism(tri_a, tri_a) is not None


def test_size_mismatch_is_never_isomorphic(p2, k3):
    assert isomorphism(p2, k3) is None
    assert isomorphism(k3, graph("k4")) is None


def test_isomorphism_agrees_with_permutation_search():
    """Against trying every vertex permutation, on all canonical graphs on
    <= 4 vertices and a relabeled copy of each."""
    def renamed(g, p):
        return tuple(sorted((p[u], p[v], pu, pv) if p[u] < p[v]
                            else (p[v], p[u], pv, pu)
                            for u, v, pu, pv in g.edges()))

    graphs = all_canonical(4)
    for g in graphs:
        copy = relabel(g, tuple(reversed(range(g.n))))
        for h in graphs + (copy,):
            if (h.n, h.edge_count()) != (g.n, g.edge_count()):
                continue
            edges = h.encoding()[1]
            brute = any(renamed(g, p) == edges
                        for p in permutations(range(g.n)))
            assert (isomorphism(g, h) is not None) == brute

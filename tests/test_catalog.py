"""The built-in terrain catalog: builders, expectations, files."""

from collections import Counter
from itertools import combinations

import pytest

from binox.catalog import (ENTRIES, MAPS, OCTAHEDRON_FACES, _check_surface,
                           complete_graph, cycle_graph, entry, graph,
                           graph_from_edges, graph_from_faces, names,
                           octahedron, verify_catalog, vertex_map,
                           write_catalog)
from binox.complexes import (clique_complex, is_graph_covering,
                             surface_euler_characteristic)
from binox.cover import classify, isomorphism
from binox.errors import CatalogVerificationFailed
from binox.graphs import load_graph, load_vertex_map

from conftest import all_canonical

# the closed surfaces among the catalog terrains, with V - E + F
SURFACES = {"octahedron": 2, "icosahedron": 2, "rp2": 1, "rp2_cover": 2}


def test_names_cover_all_entries():
    got = names()
    assert len(got) == len(ENTRIES)
    for want in ("k1", "p2", "k3", "k4", "c4", "grid3", "octahedron",
                 "icosahedron", "rp2", "rp2_cover"):
        assert want in got


def test_unknown_names_raise():
    with pytest.raises(KeyError):
        graph("moebius")
    with pytest.raises(KeyError):
        entry("moebius")
    with pytest.raises(KeyError):
        vertex_map("moebius")


def test_cycle_needs_three_vertices():
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_ports_ascend_by_neighbor_id():
    p3 = graph("p3")
    assert p3.neighbor(1, 0) == 0
    assert p3.neighbor(1, 1) == 2


def test_cycles_are_oriented():
    c5 = graph("c5")
    for i in range(5):
        assert c5.neighbor(i, 0) == (i + 1) % 5
        assert c5.neighbor(i, 1) == (i - 1) % 5


def test_grid_is_triangle_free():
    g = graph("grid3")
    assert (g.n, g.edge_count()) == (9, 12)
    assert clique_complex(g).dimension == 1


def test_surface_shapes():
    for name, n, m, tris, euler in (("octahedron", 6, 12, 8, 2),
                                    ("icosahedron", 12, 30, 20, 2),
                                    ("rp2", 11, 30, 20, 1)):
        g = graph(name)
        cx = clique_complex(g)
        counts = Counter(len(s) - 1 for s in cx.simplices)
        assert (g.n, g.edge_count()) == (n, m), name
        assert cx.dimension == 2, name
        assert counts[2] == tris, name
        assert g.n - g.edge_count() + counts[2] == euler, name


def test_surface_routine_on_catalog_and_small_graphs():
    for e in ENTRIES:
        got = surface_euler_characteristic(clique_complex(e.build()))
        assert got == SURFACES.get(e.name), e.name
    for g in all_canonical(4):
        assert surface_euler_characteristic(clique_complex(g)) is None


def test_pinched_octahedra_are_not_a_surface():
    # two octahedra sharing vertex 0: dimension 2 and every edge on two
    # triangles, but the link of vertex 0 is two 4-cycles
    twin = [tuple(0 if v == 0 else v + 5 for v in f) for f in OCTAHEDRON_FACES]
    g = graph_from_faces(11, OCTAHEDRON_FACES + tuple(twin))
    cx = clique_complex(g)
    assert cx.dimension == 2
    assert all(len(cx.thirds[u, v]) == 2 for u, v, _, _ in g.edges())
    assert surface_euler_characteristic(cx) is None


def test_three_triangles_on_one_edge_are_not_a_surface():
    g = graph_from_edges(5, [(0, 1)] + [(u, w) for w in (2, 3, 4)
                                         for u in (0, 1)])
    cx = clique_complex(g)
    assert cx.dimension == 2 and len(cx.thirds[0, 1]) == 3
    assert surface_euler_characteristic(cx) is None


@pytest.mark.parametrize("g, faces, euler, message", [
    (complete_graph(4), tuple(combinations(range(4), 3)), 2,
     "not a closed surface"),
    (octahedron(), OCTAHEDRON_FACES[1:], 2, "not clean"),
    (octahedron(), OCTAHEDRON_FACES, 1, "Euler characteristic 2, wanted 1"),
], ids=["k4_faces", "missing_face", "wrong_euler"])
def test_surface_check_failures(g, faces, euler, message):
    with pytest.raises(CatalogVerificationFailed, match=message):
        _check_surface("entry", g, faces, euler)


def test_double_cover_size():
    assert graph("rp2_cover").n == 22 == 2 * graph("rp2").n


def test_expected_classifications_hold():
    for name in ("k1", "tree7", "chordal6", "octahedron"):
        e = entry(name)
        got = classify(e.build())
        assert got.kind == e.expected_kind
        assert got.sheets == e.expected_sheets


def test_verify_catalog_is_clean():
    report = verify_catalog()
    assert len(report) == len(ENTRIES) + len(MAPS)
    by_name = dict(line.split(":", 1) for line in report)
    assert "finite_cover sheets=2" in by_name["rp2"]
    assert "simply_connected sheets=1" in by_name["k4"]
    assert "exceeds_budget sheets=-" in by_name["c4"]
    assert by_name["c6_to_k3"].strip() == "covering=False"
    assert by_name["c8_to_c4"].strip() == "covering=True"


def test_written_files_round_trip(tmp_path):
    written = write_catalog(str(tmp_path))
    assert len(written) == len(ENTRIES) + len(MAPS)
    for e in ENTRIES:
        back = load_graph(str(tmp_path / f"{e.name}.g"))
        assert back.encoding() == e.build().encoding()
    for m in MAPS:
        f, src, dst = vertex_map(m.name)
        path = tmp_path / f"{m.name.replace('_', '-')}.map"
        assert load_vertex_map(str(path), src, dst) == f


def test_committed_catalog_matches_builders():
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent / "catalog"
    for e in ENTRIES:
        back = load_graph(str(root / f"{e.name}.g"))
        assert back.encoding() == e.build().encoding(), e.name
    for m in MAPS:
        f, src, dst = vertex_map(m.name)
        path = root / f"{m.name.replace('_', '-')}.map"
        assert load_vertex_map(str(path), src, dst) == f, m.name
    assert len(list(root.glob("*.map"))) == len(MAPS)


def test_isolated_builder_consistency():
    tri = graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert isomorphism(tri, tri) is not None
    assert tri.edge_count() == 3


def test_rp2_projection_is_returned_as_a_copy():
    f, cover, base = vertex_map("rp2_cover_to_rp2")
    f[0] = None
    again, _, _ = vertex_map("rp2_cover_to_rp2")
    assert again[0] is not None
    assert is_graph_covering(again, cover, base)

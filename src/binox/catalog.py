"""Built-in terrain catalog: graphs, covering maps, expected classifications.

Port conventions: cycles are oriented (port 0 to the successor, port 1 to
the predecessor) so that index-arithmetic covering maps between cycles
preserve ports; every other entry numbers ports by ascending neighbor id.

The three closed-surface entries carry their face lists and are verified
clean at build time: the 3-cliques are exactly the listed faces, the
clique complex is a closed surface (``surface_euler_characteristic``:
dimension 2, so no 4-cliques, every edge on two triangles, every vertex
link a single cycle), and its Euler characteristic matches.  The
11-vertex projective-plane triangulation was found by a search over
vertex splits (scripts/find_clean_rp2.py) and is frozen here; the
6-vertex minimal triangulation is useless for this purpose because it is
the complete graph and its clique complex fills in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from pathlib import Path
from typing import Callable

from .complexes import (clique_complex, coverings_agree,
                        surface_euler_characteristic)
from .cover import CoverResult, classify, universal_cover
from .errors import CatalogVerificationFailed
from .graphs import PortGraph, format_vertex_map, save_graph

OCTAHEDRON_FACES = (
    (0, 1, 2), (0, 2, 4), (0, 4, 5), (0, 5, 1),
    (3, 1, 2), (3, 2, 4), (3, 4, 5), (3, 5, 1),
)

ICOSAHEDRON_FACES = (
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (11, 6, 7), (11, 7, 8), (11, 8, 9), (11, 9, 10), (11, 10, 6),
    (1, 2, 6), (2, 6, 7), (2, 3, 7), (3, 7, 8), (3, 4, 8),
    (4, 8, 9), (4, 5, 9), (5, 9, 10), (5, 1, 10), (1, 10, 6),
)

PROJECTIVE_PLANE_FACES = (
    (0, 1, 2), (0, 1, 10), (0, 2, 6), (0, 6, 10),
    (1, 2, 4), (1, 4, 8), (1, 5, 8), (1, 5, 10),
    (2, 3, 6), (2, 3, 7), (2, 4, 7), (3, 5, 7),
    (3, 5, 8), (3, 6, 8), (4, 7, 9), (4, 8, 9),
    (5, 7, 10), (6, 8, 9), (6, 9, 10), (7, 9, 10),
)


def graph_from_edges(n: int, pairs) -> PortGraph:
    """Ports by ascending neighbor id."""
    pairs = list(pairs)
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    port_of = [{w: i for i, w in enumerate(sorted(ns))} for ns in nbrs]
    return PortGraph(n, [(u, v, port_of[u][v], port_of[v][u]) for u, v in pairs])


def graph_from_faces(n: int, faces) -> PortGraph:
    pairs = sorted({tuple(sorted(p)) for f in faces for p in combinations(f, 2)})
    return graph_from_edges(n, pairs)


def path_graph(n: int) -> PortGraph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> PortGraph:
    """Oriented cycle: port 0 to the successor, port 1 to the predecessor."""
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return PortGraph(n, [(i, (i + 1) % n, 0, 1) for i in range(n)])


def complete_graph(n: int) -> PortGraph:
    return graph_from_edges(n, combinations(range(n), 2))


def single_vertex() -> PortGraph:
    return PortGraph(1, [])


def binary_tree7() -> PortGraph:
    return graph_from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)])


def grid3() -> PortGraph:
    pairs = []
    for r in range(3):
        for c in range(3):
            v = 3 * r + c
            if c < 2:
                pairs.append((v, v + 1))
            if r < 2:
                pairs.append((v, v + 3))
    return graph_from_edges(9, pairs)


def chordal6() -> PortGraph:
    """A 3-tree on six vertices: chordal, simply connected, no symmetry."""
    return graph_from_edges(6, [
        (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
        (1, 4), (2, 4), (3, 4), (2, 5), (3, 5), (4, 5),
    ])


def octahedron() -> PortGraph:
    return graph_from_faces(6, OCTAHEDRON_FACES)


def icosahedron() -> PortGraph:
    return graph_from_faces(12, ICOSAHEDRON_FACES)


def projective_plane() -> PortGraph:
    return graph_from_faces(11, PROJECTIVE_PLANE_FACES)


@cache
def _rp2_development() -> CoverResult:
    """The projective plane's one development; its cover and map pair up."""
    return universal_cover(projective_plane(), verify=False)


def projective_plane_cover() -> PortGraph:
    """The development of the projective plane: a 22-vertex sphere."""
    return _rp2_development().cover


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    build: Callable[[], PortGraph]
    expected_kind: str  # classification bucket
    expected_sheets: int | None
    faces: tuple | None = None
    euler: int | None = None
    note: str = ""


ENTRIES: tuple[CatalogEntry, ...] = (
    CatalogEntry("k1", single_vertex, "simply_connected", 1,
                 note="single vertex; halts with zero moves"),
    CatalogEntry("p2", lambda: path_graph(2), "simply_connected", 1),
    CatalogEntry("p3", lambda: path_graph(3), "simply_connected", 1),
    CatalogEntry("tree7", binary_tree7, "simply_connected", 1),
    CatalogEntry("k3", lambda: cycle_graph(3), "simply_connected", 1,
                 note="triangle; its 2-simplex makes it simply connected"),
    CatalogEntry("k4", lambda: complete_graph(4), "simply_connected", 1),
    CatalogEntry("c4", lambda: cycle_graph(4), "exceeds_budget", None,
                 note="infinite universal cover (the line)"),
    CatalogEntry("c5", lambda: cycle_graph(5), "exceeds_budget", None),
    CatalogEntry("c6", lambda: cycle_graph(6), "exceeds_budget", None),
    CatalogEntry("c8", lambda: cycle_graph(8), "exceeds_budget", None),
    CatalogEntry("grid3", grid3, "exceeds_budget", None,
                 note="triangle-free with cycles, so the cover is infinite"),
    CatalogEntry("chordal6", chordal6, "simply_connected", 1),
    CatalogEntry("octahedron", octahedron, "simply_connected", 1,
                 faces=OCTAHEDRON_FACES, euler=2),
    CatalogEntry("icosahedron", icosahedron, "simply_connected", 1,
                 faces=ICOSAHEDRON_FACES, euler=2),
    CatalogEntry("rp2", projective_plane, "finite_cover", 2,
                 faces=PROJECTIVE_PLANE_FACES, euler=1,
                 note="clean 11-vertex projective plane; double cover is a sphere"),
    CatalogEntry("rp2_cover", projective_plane_cover, "simply_connected", 1,
                 note="the 22-vertex developed double cover of rp2"),
)


@dataclass(frozen=True)
class MapEntry:
    name: str
    src: str
    dst: str
    build: Callable[[], dict[int, int]]
    expected_covering: bool
    note: str = ""


def _rp2_projection() -> dict[int, int]:
    return dict(_rp2_development().projection)


MAPS: tuple[MapEntry, ...] = (
    MapEntry("c8_to_c4", "c8", "c4", lambda: {i: i % 4 for i in range(8)}, True,
             note="oriented double cover of the 4-cycle"),
    MapEntry("c6_to_k3", "c6", "k3", lambda: {i: i % 3 for i in range(6)}, False,
             note="classical unlabeled cover, but the triangle's 2-simplex "
                  "and labels rule it out here"),
    MapEntry("rp2_cover_to_rp2", "rp2_cover", "rp2", _rp2_projection, True),
    MapEntry("k4_identity", "k4", "k4",
             lambda: {0: 0, 1: 1, 2: 2, 3: 3}, True,
             note="identity self-covering; one-sheet sanity case"),
)


def names() -> tuple[str, ...]:
    return tuple(e.name for e in ENTRIES)


def graph(name: str) -> PortGraph:
    return entry(name).build()


def entry(name: str) -> CatalogEntry:
    for e in ENTRIES:
        if e.name == name:
            return e
    raise KeyError(f"no catalog entry named {name!r}")


def vertex_map(name: str) -> tuple[dict[int, int], PortGraph, PortGraph]:
    for m in MAPS:
        if m.name == name:
            return m.build(), graph(m.src), graph(m.dst)
    raise KeyError(f"no catalog map named {name!r}")


# -- verification ------------------------------------------------------------------


def _fail(name: str, what: str) -> None:
    raise CatalogVerificationFailed(f"{name}: {what}")


def _check_surface(name: str, g: PortGraph, faces, euler: int) -> None:
    cx = clique_complex(g)
    triangles = cx.by_dim[2] if cx.dimension >= 2 else ()
    if set(triangles) != {tuple(sorted(f)) for f in faces}:
        _fail(name, "3-cliques do not equal the face list (not clean)")
    chi = surface_euler_characteristic(cx)
    if chi is None:
        _fail(name, "clique complex is not a closed surface")
    if chi != euler:
        _fail(name, f"Euler characteristic {chi}, wanted {euler}")


def verify_catalog() -> list[str]:
    """Re-derive every entry's expectations; report lines on success."""
    report: list[str] = []
    graphs: dict[str, PortGraph] = {}
    for e in ENTRIES:
        g = e.build()
        graphs[e.name] = g
        if e.faces is not None:
            _check_surface(e.name, g, e.faces, e.euler)
        got = classify(g)
        if got.kind != e.expected_kind:
            _fail(e.name, f"classified {got.kind}, expected {e.expected_kind}")
        if e.expected_sheets is not None and got.sheets != e.expected_sheets:
            _fail(e.name, f"sheets {got.sheets}, expected {e.expected_sheets}")
        sheets = "-" if got.sheets is None else str(got.sheets)
        report.append(
            f"{e.name}: n={g.n} m={g.edge_count()} {got.kind} sheets={sheets}"
        )
    for m in MAPS:
        f = m.build()
        verdict = coverings_agree(f, graphs[m.src], graphs[m.dst])
        if verdict != m.expected_covering:
            _fail(m.name, f"covering verdict {verdict}, expected {m.expected_covering}")
        report.append(f"{m.name}: covering={verdict}")
    return report


def write_catalog(directory: str) -> list[str]:
    """Write every graph (.g) and map (.map) file; returns written paths."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    for e in ENTRIES:
        p = out / f"{e.name}.g"
        save_graph(e.build(), str(p))
        written.append(str(p))
    for m in MAPS:
        p = out / f"{m.name.replace('_', '-')}.map"
        p.write_text(format_vertex_map(m.build()), encoding="utf-8")
        written.append(str(p))
    return written

"""Clique complexes, closed surfaces, simplicial maps and both coverings.

The clique complex of a graph has a simplex for every clique.  Coverings
can be phrased combinatorially on port graphs (degree-, port- and
label-preserving surjections) or simplicially (star bijections); on clique
complexes the two notions agree, and coverings_agree enforces that as a
kernel invariant.  A clique complex is a flag complex, so the star test
reads the graph: neighborhoods and triangle counts, not simplex images.
"""

from __future__ import annotations

from .errors import BudgetExceeded, EquivalenceViolation, NotSimplicial
from .graphs import PortGraph

Simplex = tuple[int, ...]  # strictly increasing vertex tuple

SIMPLEX_BUDGET = 10**6  # enumerated cliques per complex

_NOT_SIMPLICIAL = "map is not simplicial; star test undefined"


class CliqueComplex:
    """All cliques of a graph, organized for covering checks and moves.

    ``simplices`` must be exactly the graph's cliques, as ``clique_complex``
    builds them: the covering check reads only the graph and the triangles.

    Tables built once:

    * ``by_dim[d]``: the d-simplices, ascending;
    * ``edge_ports``: the graph's edges as (u, v, pu, pv), u < v.

    Move tables for ``homotopy.neighbor_moves``.  Inserted vertices come
    as ready tuples, so a child loop is two concatenations:

    * ``back_steps[v]``: ``(w,)`` for each neighbor w of v, in port order;
    * ``thirds[u, v]``: ``(w,)`` for each triangle {u, v, w}, w ascending,
      under both orders of (u, v); edges on no triangle have no key;
    * ``third_counts[u, v]``: the number of triangles on each step (u, v)
      a walk can take, ``len(thirds[u, v])`` for an edge in either order,
      0 for an edge on no triangle and for a stationary step (v, v), so
      a loop's expand_triangle children are counted without listing them;
    * ``triangle_pairs[v]``: ``(x, y)`` then ``(y, x)`` for each triangle
      {v, x, y} with x < y, triangles ascending;
    * ``triangle_paths``: every walk (u, w, v) along two sides of a
      triangle.
    """

    __slots__ = ("graph", "simplices", "dimension", "by_dim", "edge_ports",
                 "back_steps", "thirds", "third_counts", "triangle_pairs",
                 "triangle_paths")

    def __init__(self, graph: PortGraph, simplices: frozenset[Simplex]):
        self.graph = graph
        self.simplices = simplices
        self.dimension = max(map(len, simplices)) - 1
        by_dim: list[list[Simplex]] = [[] for _ in range(self.dimension + 1)]
        for s in simplices:
            by_dim[len(s) - 1].append(s)
        self.by_dim = tuple(tuple(sorted(ds)) for ds in by_dim)
        self.edge_ports = tuple(graph.edges())
        self.back_steps = tuple(tuple((w,) for w in graph.neighbors(v))
                                for v in graph.vertices)
        thirds: dict[tuple[int, int], list[tuple[int]]] = {}
        pairs: list[list[tuple[int, int]]] = [[] for _ in graph.vertices]
        triangles = self.by_dim[2] if self.dimension >= 2 else ()
        for a, b, c in triangles:
            for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
                thirds.setdefault((u, v), []).append((w,))
                thirds.setdefault((v, u), []).append((w,))
                pairs[w] += ((u, v), (v, u))
        self.thirds = {uv: tuple(ws) for uv, ws in thirds.items()}
        self.third_counts = {(u, v): len(thirds.get((u, v), ()))
                             for u in graph.vertices
                             for v in (u, *graph.neighbors(u))}
        self.triangle_pairs = tuple(map(tuple, pairs))
        self.triangle_paths = frozenset(
            (u, w, v) for (u, v), ws in thirds.items() for (w,) in ws)


def clique_complex(g: PortGraph) -> CliqueComplex:
    """Enumerate every clique of g; BudgetExceeded past SIMPLEX_BUDGET."""
    cap = SIMPLEX_BUDGET
    sims: list[Simplex] = []
    neigh = [frozenset(g.neighbors(v)) for v in g.vertices]
    stack: list[Simplex] = [(v,) for v in reversed(range(g.n))]
    while stack:
        c = stack.pop()
        sims.append(c)
        if len(sims) > cap:
            raise BudgetExceeded(f"more than {cap} simplices",
                                 what="simplices", cap=cap, reached=len(sims))
        common = neigh[c[0]]
        for v in c[1:]:
            common = common & neigh[v]
        for w in sorted(common):
            if w > c[-1]:
                stack.append(c + (w,))
    return CliqueComplex(g, frozenset(sims))


def surface_euler_characteristic(cx: CliqueComplex) -> int | None:
    """V - E + F when cx is a closed surface, None otherwise.

    A closed surface here has dimension 2, every edge on exactly two
    triangles, and every vertex link a single cycle.  With two triangles
    on each edge vx, every link is 2-regular, so it is one cycle exactly
    when the walk around it from one neighbor of v meets them all.
    """
    if cx.dimension != 2:
        return None
    thirds = cx.thirds
    if any(len(thirds.get((u, v), ())) != 2 for u, v, _, _ in cx.edge_ports):
        return None
    g = cx.graph
    for v in g.vertices:
        nbrs = g.neighbors(v)
        prev, x, steps = nbrs[0], thirds[v, nbrs[0]][0][0], 1
        while x != nbrs[0]:
            (a,), (b,) = thirds[v, x]
            prev, x = x, b if a == prev else a
            steps += 1
        if steps != len(nbrs):
            return None
    return len(cx.by_dim[0]) - len(cx.by_dim[1]) + len(cx.by_dim[2])


# -- maps ---------------------------------------------------------------------


def _check_total(f: dict[int, int], src: PortGraph, dst: PortGraph) -> None:
    for u in src.vertices:
        if u not in f:
            raise NotSimplicial(f"map undefined on vertex {u}")
        if type(f[u]) is not int:
            raise NotSimplicial(f"image {f[u]!r} of vertex {u} is not an int")
        if not 0 <= f[u] < dst.n:
            raise NotSimplicial(f"image {f[u]} of vertex {u} out of range")


def is_simplicial_covering(f: dict[int, int], src: CliqueComplex,
                           dst: CliqueComplex) -> bool:
    """Star-bijection test, read off the 1-skeleton.

    Requires f to be simplicial, sending every simplex of src onto a
    simplex of dst (NotSimplicial otherwise), and checks, for every vertex
    v of src, that s -> f(s) maps the star of v injectively ONTO the star
    of f(v).

    Both complexes are flag complexes, so neither needs its simplices
    listed.  Images that are pairwise adjacent or equal form a clique, so
    f is simplicial exactly when every edge lands on an edge or a single
    vertex.  The star of v is v joined to each clique among v's
    neighbors.  When f is injective on v's neighbors and maps them onto
    f(v)'s (so none lands on f(v)), it sends the edges among v's
    neighbors one-to-one into those among f(v)'s.  There is one such edge
    per triangle on the vertex, so equal triangle counts make that onto.
    f is then an isomorphism between the two neighborhoods, and their
    cliques, the higher simplices of both stars, correspond too.
    Conversely a star bijection maps v's edges onto f(v)'s and v's
    triangles onto f(v)'s.

    Clique complexes of port graphs are labeled objects: each edge simplex
    carries its two port numbers, and the map must preserve them too.  The
    star test alone is strictly weaker than the port-graph covering notion:
    any port-breaking automorphism of the underlying complex passes it.
    """
    g, h = src.graph, dst.graph
    _check_total(f, g, h)
    has_edge = h.has_edge
    for u, v, _, _ in src.edge_ports:
        a, b = f[u], f[v]
        if a != b and not has_edge(a, b):
            raise NotSimplicial(_NOT_SIMPLICIAL)
    # triangle_pairs lists each triangle on a vertex twice
    src_pairs, dst_pairs = src.triangle_pairs, dst.triangle_pairs
    for v in g.vertices:
        fv, nbrs = f[v], g.neighbors(v)
        images = {f[w] for w in nbrs}
        if (len(images) != len(nbrs) or images != set(h.neighbors(fv))
                or len(src_pairs[v]) != len(dst_pairs[fv])):
            return False
    port_to = h.port_to
    for u, v, pu, pv in src.edge_ports:
        # the link test makes f(u) and f(v) adjacent
        if port_to(f[u], f[v]) != pu or port_to(f[v], f[u]) != pv:
            return False
    return True


def is_graph_covering(f: dict[int, int], src: PortGraph, dst: PortGraph) -> bool:
    """Port-graph covering test.

    f must preserve radius-1 labels, which carry the degree and every back
    port, and commute with ports: the port-p neighbor of u maps to the
    port-p neighbor of f(u).  Port commutation at every vertex makes f a
    graph homomorphism that preserves both port numbers, so this is the
    full combinatorial definition in one pass.
    """
    _check_total(f, src, dst)
    image = f.__getitem__
    for u in src.vertices:
        fu = f[u]
        if (src.label(u) != dst.label(fu)
                or tuple(map(image, src.neighbors(u))) != dst.neighbors(fu)):
            return False
    return True


def coverings_agree(f: dict[int, int], src: PortGraph, dst: PortGraph) -> bool:
    """Run both covering definitions; fault if they ever disagree.

    Returns the shared verdict.  A map that is not even simplicial cannot
    be a graph covering either (port commutation forces simplex images),
    so NotSimplicial from the star test is folded into verdict False after
    confirming the graph side agrees.  A partial map, or one with an image
    that is not an int or lies outside dst, is neither, so it gets verdict
    False too.
    """
    try:
        gc = is_graph_covering(f, src, dst)
    except NotSimplicial:  # a vertex unmapped, or its image bad
        gc = False
    ks, kd = clique_complex(src), clique_complex(dst)
    try:
        sc = is_simplicial_covering(f, ks, kd)
    except NotSimplicial:
        sc = False
    if gc != sc:
        raise EquivalenceViolation(
            f"graph-covering={gc} but simplicial-covering={sc} "
            f"for a map on {src.n} -> {dst.n} vertices"
        )
    return gc

"""Clique complexes, simplicial maps, and the two covering notions.

The clique complex of a graph has a simplex for every clique.  Coverings
can be phrased combinatorially on port graphs (degree-, port- and
label-preserving surjections) or simplicially (star bijections); on clique
complexes the two notions agree, and coverings_agree enforces that as a
kernel invariant.
"""

from __future__ import annotations

from .errors import BudgetExceeded, EquivalenceViolation, NotSimplicial
from .graphs import PortGraph

Simplex = tuple[int, ...]  # strictly increasing vertex tuple

SIMPLEX_BUDGET = 10**6  # enumerated cliques per complex


class CliqueComplex:
    """All cliques of a graph, organized for star and triangle lookups.

    Move tables for ``homotopy.neighbor_moves``, built once.  Inserted
    vertices come as ready tuples, so a child loop is two concatenations:

    * ``back_steps[v]``: ``(w,)`` for each neighbor w of v, in port order;
    * ``thirds[u, v]``: ``(w,)`` for each triangle {u, v, w}, w ascending,
      under both orders of (u, v); edges on no triangle have no key;
    * ``triangle_pairs[v]``: ``(x, y)`` then ``(y, x)`` for each triangle
      {v, x, y} with x < y, triangles ascending;
    * ``backtracks``: every walk (u, w, u) along an edge;
    * ``triangle_paths``: every walk (u, w, v) along two sides of a
      triangle;
    * ``triangle_circuits``: every walk (u, x, y, u) around a triangle.
    """

    __slots__ = ("graph", "simplices", "dimension", "_stars", "back_steps",
                 "thirds", "triangle_pairs", "backtracks", "triangle_paths",
                 "triangle_circuits")

    def __init__(self, graph: PortGraph, simplices: frozenset[Simplex]):
        self.graph = graph
        self.simplices = simplices
        self.dimension = max(len(s) for s in simplices) - 1
        self._stars: dict[int, frozenset[Simplex]] = {}
        self.back_steps = tuple(tuple((w,) for w in graph.neighbors(v))
                                for v in graph.vertices)
        self.backtracks = frozenset((u, w, u) for u in graph.vertices
                                    for w in graph.neighbors(u))
        thirds: dict[tuple[int, int], list[tuple[int]]] = {}
        pairs: list[list[tuple[int, int]]] = [[] for _ in graph.vertices]
        for s in sorted(s for s in simplices if len(s) == 3):
            a, b, c = s
            for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
                thirds.setdefault((u, v), []).append((w,))
                thirds.setdefault((v, u), []).append((w,))
                pairs[w] += ((u, v), (v, u))
        self.thirds = {uv: tuple(ws) for uv, ws in thirds.items()}
        self.triangle_pairs = tuple(map(tuple, pairs))
        self.triangle_paths = frozenset(
            (u, w, v) for (u, v), ws in thirds.items() for (w,) in ws)
        self.triangle_circuits = frozenset(
            (u, x, y, u) for u, xy in enumerate(pairs) for x, y in xy)

    def star(self, v: int) -> frozenset[Simplex]:
        """Simplices containing v."""
        got = self._stars.get(v)
        if got is None:
            got = frozenset(s for s in self.simplices if v in s)
            self._stars[v] = got
        return got


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


# -- maps ---------------------------------------------------------------------


def _check_total(f: dict[int, int], src: PortGraph, dst: PortGraph) -> None:
    for u in src.vertices:
        if u not in f:
            raise NotSimplicial(f"map undefined on vertex {u}")
        if not 0 <= f[u] < dst.n:
            raise NotSimplicial(f"image {f[u]} of vertex {u} out of range")


def is_simplicial_map(f: dict[int, int], src: CliqueComplex,
                      dst: CliqueComplex) -> bool:
    """Does f send every simplex of src onto a simplex of dst?"""
    _check_total(f, src.graph, dst.graph)
    for s in src.simplices:
        if tuple(sorted({f[v] for v in s})) not in dst.simplices:
            return False
    return True


def is_simplicial_covering(f: dict[int, int], src: CliqueComplex,
                           dst: CliqueComplex) -> bool:
    """Star-bijection test: f restricted to each star is a bijection.

    Requires f to be simplicial (NotSimplicial otherwise) and checks, for
    every vertex v of src, that s -> f(s) maps the star of v injectively
    ONTO the star of f(v).

    Clique complexes of port graphs are labeled objects: each edge simplex
    carries its two port numbers, and the map must preserve them too.  The
    star test alone is strictly weaker than the port-graph covering notion:
    any port-breaking automorphism of the underlying complex passes it.
    """
    if not is_simplicial_map(f, src, dst):
        raise NotSimplicial("map is not simplicial; star test undefined")
    for v in src.graph.vertices:
        images = [tuple(sorted({f[x] for x in s})) for s in src.star(v)]
        if len(set(images)) != len(images):
            return False
        if set(images) != dst.star(f[v]):
            return False
    port_to = dst.graph.port_to
    for u, v, pu, pv in src.graph.edges():
        # the star test makes f(u) and f(v) adjacent
        if port_to(f[u], f[v]) != pu or port_to(f[v], f[u]) != pv:
            return False
    return True


def is_graph_covering(f: dict[int, int], src: PortGraph, dst: PortGraph) -> bool:
    """Port-graph covering test.

    f must preserve degrees, commute with ports (the port-p neighbor of u
    maps to the port-p neighbor of f(u)) and preserve radius-1 labels.
    Port commutation at every vertex makes f a graph homomorphism that
    preserves both port numbers, so this is the full combinatorial
    definition in one pass.
    """
    _check_total(f, src, dst)
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


def coverings_agree(f: dict[int, int], src: PortGraph, dst: PortGraph) -> bool:
    """Run both covering definitions; fault if they ever disagree.

    Returns the shared verdict.  A map that is not even simplicial cannot
    be a graph covering either (port commutation forces simplex images),
    so NotSimplicial from the star test is folded into verdict False after
    confirming the graph side agrees.
    """
    gc = is_graph_covering(f, src, dst)
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

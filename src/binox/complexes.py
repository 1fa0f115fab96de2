"""Clique complexes, simplicial maps, and the two covering notions.

The clique complex of a graph has a simplex for every clique.  Coverings
can be phrased combinatorially on port graphs (degree-, port- and
label-preserving surjections) or simplicially (star bijections); on clique
complexes the two notions agree, and coverings_agree enforces that as a
kernel invariant.
"""

from __future__ import annotations

from .config import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceeded, EquivalenceViolation, NotSimplicial
from .graphs import PortGraph

Simplex = tuple[int, ...]  # strictly increasing vertex tuple


class CliqueComplex:
    """All cliques of a graph, organized for star and triangle lookups."""

    __slots__ = ("graph", "simplices", "dimension", "_stars", "_tri_third",
                 "_tris_at")

    def __init__(self, graph: PortGraph, simplices: frozenset[Simplex]):
        self.graph = graph
        self.simplices = simplices
        self.dimension = max(len(s) for s in simplices) - 1
        self._stars: dict[int, frozenset[Simplex]] = {}
        # (u, v), either order -> tuple of w completing a triangle, ascending
        tri: dict[tuple[int, int], list[int]] = {}
        tris_at: dict[int, list[Simplex]] = {v: [] for v in graph.vertices}
        for s in simplices:
            if len(s) == 3:
                a, b, c = s
                tri.setdefault((a, b), []).append(c)
                tri.setdefault((a, c), []).append(b)
                tri.setdefault((b, c), []).append(a)
                for v in s:
                    tris_at[v].append(s)
        self._tri_third: dict[tuple[int, int], tuple[int, ...]] = {}
        for (u, v), ws in tri.items():
            self._tri_third[u, v] = self._tri_third[v, u] = tuple(sorted(ws))
        self._tris_at = {v: tuple(sorted(ws)) for v, ws in tris_at.items()}

    def star(self, v: int) -> frozenset[Simplex]:
        """Simplices containing v."""
        got = self._stars.get(v)
        if got is None:
            got = frozenset(s for s in self.simplices if v in s)
            self._stars[v] = got
        return got

    def triangle_thirds(self, u: int, v: int) -> tuple[int, ...]:
        """Vertices w such that {u, v, w} is a 2-simplex."""
        return self._tri_third.get((u, v), ())

    def triangles_at(self, v: int) -> tuple[Simplex, ...]:
        return self._tris_at[v]

    def count_by_dim(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for s in self.simplices:
            out[len(s) - 1] = out.get(len(s) - 1, 0) + 1
        return out


def clique_complex(g: PortGraph, budgets: Budgets = DEFAULT_BUDGETS) -> CliqueComplex:
    """Enumerate every clique of g; BudgetExceeded past budgets.simplices."""
    cap = budgets.simplices
    sims: list[Simplex] = []
    neigh = [frozenset(g.neighbors(v)) for v in g.vertices]
    stack: list[Simplex] = [(v,) for v in reversed(range(g.n))]
    while stack:
        c = stack.pop()
        sims.append(c)
        if len(sims) > cap:
            raise BudgetExceeded(f"more than {cap} simplices")
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
                           dst: CliqueComplex,
                           respect_ports: bool = True) -> bool:
    """Star-bijection test: f restricted to each star is a bijection.

    Requires f to be simplicial (NotSimplicial otherwise) and checks, for
    every vertex v of src, that s -> f(s) maps the star of v injectively
    ONTO the star of f(v).

    Clique complexes of port graphs are labeled objects: each edge simplex
    carries its two port numbers.  With ``respect_ports`` (the default) the
    map must also preserve that decoration, which is what makes this notion
    coincide with the port-graph covering notion on every vertex map; the
    bare structural test (ports ignored) is available by turning it off,
    but is strictly weaker: any port-breaking automorphism of the
    underlying complex passes it.
    """
    if not is_simplicial_map(f, src, dst):
        raise NotSimplicial("map is not simplicial; star test undefined")
    for v in src.graph.vertices:
        images = [tuple(sorted({f[x] for x in s})) for s in src.star(v)]
        if len(set(images)) != len(images):
            return False
        if set(images) != dst.star(f[v]):
            return False
    if respect_ports:
        for u, v, pu, pv in src.graph.edges():
            fu, fv = f[u], f[v]
            if not dst.graph.has_edge(fu, fv):
                return False  # unreachable after the star test; defensive
            if (dst.graph.port_to(fu, fv) != pu
                    or dst.graph.port_to(fv, fu) != pv):
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


def coverings_agree(f: dict[int, int], src: PortGraph, dst: PortGraph,
                    budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """Run both covering definitions; fault if they ever disagree.

    Returns the shared verdict.  A map that is not even simplicial cannot
    be a graph covering either (port commutation forces simplex images),
    so NotSimplicial from the star test is folded into verdict False after
    confirming the graph side agrees.
    """
    gc = is_graph_covering(f, src, dst)
    ks, kd = clique_complex(src, budgets), clique_complex(dst, budgets)
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

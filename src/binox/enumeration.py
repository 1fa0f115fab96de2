"""Deterministic enumeration of connected port graphs; candidate search.

The raw stream visits every connected labeled graph on n vertices (edge
sets ordered by (edge count, lexicographic)) and, per edge set, every port
assignment (lexicographic product of per-vertex neighbor orderings).  The
canonical stream keeps one representative per port-preserving isomorphism
class: the labeled graph whose encoding equals the minimum port-driven BFS
encoding over all basepoints.

Candidate search turns a folded view into at most one candidate terrain.
Exhaustive mode develops the universal cover straight from the view by the
star completion of ``cover.develop``: a lifted vertex holds a view node and
a fresh port reads that node's child.  Views of depth n - 1 determine a
terrain's universal cover (Norris 1995), so this is the one candidate that
can pass the halting test.  Hinted mode scans a given list of graphs and
returns the first (graph, root) whose view equals the target.  Either way
a match is decided by one fold into the table that holds the target view,
looking shapes up and never interning them, so that table is only read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

from .cover import develop
from .errors import KernelFault
from .graphs import Label, PortGraph, port_map
from .views import ViewInterner, ViewKey, _fold

Pair = tuple[int, int]


def _spans_connected(n: int, eset: Sequence[Pair]) -> bool:
    if n == 1:
        return True
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v in eset:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def edge_sets(n: int) -> Iterator[tuple[Pair, ...]]:
    """Connected edge sets on vertices 0..n-1, by (edge count, lex)."""
    pairs = list(combinations(range(n), 2))
    for m in range(max(n - 1, 0), len(pairs) + 1):
        for sub in combinations(pairs, m):
            if _spans_connected(n, sub):
                yield sub


def port_assignments(n: int, eset: Sequence[Pair]) -> Iterator[PortGraph]:
    """Every port numbering of one edge set, in lexicographic product order."""
    nbrs = [[] for _ in range(n)]
    for u, v in eset:
        nbrs[u].append(v)
        nbrs[v].append(u)
    per_vertex = [list(permutations(sorted(ns))) for ns in nbrs]
    for combo in product(*per_vertex):
        port_of = [{w: i for i, w in enumerate(order)} for order in combo]
        edges = [(u, v, port_of[u][v], port_of[v][u]) for u, v in eset]
        yield PortGraph(n, edges)


def raw_graphs(n: int) -> Iterator[PortGraph]:
    for eset in edge_sets(n):
        yield from port_assignments(n, eset)


def bfs_encoding(g: PortGraph, base: int) -> tuple:
    """Encoding of g relabeled by port-driven BFS discovery order from base."""
    # the identity map's keys come in that order
    order = {v: i for i, v in enumerate(port_map(g, base, g, base))}
    edges = []
    for u, v, pu, pv in g.edges():
        nu, nv = order[u], order[v]
        if nu < nv:
            edges.append((nu, nv, pu, pv))
        else:
            edges.append((nv, nu, pv, pu))
    return (g.n, tuple(sorted(edges)))


def canonical_encoding(g: PortGraph) -> tuple:
    """Isomorphism-class invariant: min BFS encoding over basepoints."""
    return min(bfs_encoding(g, b) for b in g.vertices)


@lru_cache(maxsize=None)
def canonical_graphs(n: int) -> tuple[PortGraph, ...]:
    """One labeled representative per port-isomorphism class, cached.

    A graph is kept iff its own encoding equals its canonical encoding;
    exactly one member of each class in the raw stream satisfies that.
    """
    return tuple(
        g for g in raw_graphs(n) if g.encoding() == canonical_encoding(g)
    )


# -- candidate search ---------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    graph: PortGraph
    root: int


def _has_view(vk: ViewKey, h: PortGraph, w: int) -> bool:
    """Whether root w of h has the view.  w's walk tree is folded with
    each shape looked up in the view's table, never written to it, and
    the ids are compared: equal ids in one table are equal trees.  A shape
    the table lacks is in none of its trees, so the fold stops there."""
    try:
        return _fold(h, w, None, vk.depth, vk.table.find, vk.nonbacktracking,
                     {}) == vk.ident
    except KeyError:
        return False


def _view_child(table: ViewInterner, x: int, p: int) -> int | None:
    """The child of view node x at port p; None past the horizon (a leaf
    has no children) and at the entry port a non-backtracking node skips.
    A node's children come in port order with at most that one port left
    out, so port p sits at index p or p - 1."""
    children = table.key(x)[1]
    if p < len(children) and children[p][0] == p:
        return children[p][2]
    if 0 < p <= len(children) and children[p - 1][0] == p:
        return children[p - 1][2]
    return None


def find_candidate(vk: ViewKey, k: int, mode: str = "exhaustive",
                   hints: Iterable[PortGraph] = ()) -> Candidate | None:
    """A (graph, root) with fewer than k vertices matching the view, or None.

    Exhaustive mode develops the view's universal cover and returns it
    rooted at its first lifted vertex, or None when the development needs
    a node past the view's horizon or a k-th lifted vertex; KernelFault
    when the development's view differs.  Hinted mode returns the first
    match in the hint list, hints and their roots in order.  Only
    ``_has_view`` compares views, and it only reads the view's table.
    """
    if not isinstance(vk, ViewKey):
        raise TypeError(f"cannot search for {type(vk).__name__}")
    if mode == "hinted":
        for h in hints:
            if h.n < k:
                for w in h.vertices:
                    if _has_view(vk, h, w):
                        return Candidate(h, w)
        return None
    if mode != "exhaustive":
        raise ValueError(f"unknown candidate mode {mode!r}")
    table = vk.table

    def label(x: int) -> Label:
        return table.key(x)[0]

    dev = develop(label, partial(_view_child, table), vk.ident, k - 1,
                  lambda x, y: label(x) == label(y))
    if dev is None:
        return None
    h = dev[1]
    if not _has_view(vk, h, 0):  # guards against id aliasing
        raise KernelFault(
            f"candidate ({h!r}, root 0) failed re-verification at depth {vk.depth}"
        )
    return Candidate(h, 0)

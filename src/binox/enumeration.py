"""Deterministic enumeration of connected port graphs; candidate search.

The raw stream visits every connected labeled graph on n vertices (edge
sets ordered by (edge count, lexicographic)) and, per edge set, every port
assignment (lexicographic product of per-vertex neighbor orderings).  The
canonical stream keeps one representative per port-preserving isomorphism
class: the labeled graph whose encoding equals the minimum port-driven BFS
encoding over all basepoints.

Candidate search scans the raw stream in size order and returns the first
(graph, root) whose view at the requested depth equals the target view;
because the order is fixed this is deterministic, and because views are
folded into interned ids the comparison per candidate is cheap after some
sound label prefilters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

from .errors import KernelFault
from .graphs import PortGraph
from .views import ViewInterner, ViewKey, fold_graph, reintern

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
    order = {base: 0}
    queue = [base]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for p in range(g.degree(u)):
            w = g.neighbor(u, p)
            if w not in order:
                order[w] = len(order)
                queue.append(w)
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


def _root_matches(h: PortGraph, w: int, vk: ViewKey, table: ViewInterner) -> bool:
    if h.label(w) != vk.root_label:
        return False
    if vk.depth >= 1:
        for p, child_label in enumerate(vk.child_labels):
            if h.label(h.neighbor(w, p)) != child_label:
                return False
    return fold_graph(h, w, vk.depth, table, vk.nonbacktracking) == vk.ident


def _profile_admits(n: int, eset: Sequence[Pair], root_deg: int,
                    child_degs: tuple[int, ...]) -> bool:
    """Can some vertex of this edge set have the root's degree and the
    root's sorted neighbor-degree multiset?  Sound reject before paying for
    port assignments."""
    deg = [0] * n
    nbrs = [[] for _ in range(n)]
    for u, v in eset:
        deg[u] += 1
        deg[v] += 1
        nbrs[u].append(v)
        nbrs[v].append(u)
    for v in range(n):
        if deg[v] == root_deg and tuple(sorted(deg[w] for w in nbrs[v])) == child_degs:
            return True
    return False


def _verify_match(h: PortGraph, w: int, vk: ViewKey, table: ViewInterner) -> None:
    """Independent re-fold into a fresh table; guards against id aliasing."""
    fresh = ViewInterner()
    expect = reintern(table, vk.ident, fresh)
    got = fold_graph(h, w, vk.depth, fresh, vk.nonbacktracking)
    if expect != got:
        raise KernelFault(
            f"candidate ({h!r}, root {w}) failed re-verification at depth {vk.depth}"
        )


def find_candidate(vk: ViewKey, k: int, mode: str = "exhaustive",
                   hints: Iterable[PortGraph] = (), *,
                   table: ViewInterner) -> Candidate | None:
    """First (graph, root) with fewer than k vertices matching the view.

    ``vk`` is a folded view key; ``table`` is the interner that folded it.
    Exhaustive mode scans the raw stream by vertex count; hinted mode scans
    only the hint list, in order.  Either way the returned match has been
    re-verified structurally.
    """
    if mode == "hinted":
        for h in hints:
            if h.n >= k:
                continue
            for w in h.vertices:
                if _root_matches(h, w, vk, table):
                    _verify_match(h, w, vk, table)
                    return Candidate(h, w)
        return None
    if mode != "exhaustive":
        raise ValueError(f"unknown candidate mode {mode!r}")
    root_deg = vk.root_label[0]
    child_degs = tuple(sorted(lab[0] for lab in vk.child_labels))
    for n in range(1, k):
        for eset in edge_sets(n):
            if vk.depth >= 1 and not _profile_admits(n, eset, root_deg, child_degs):
                continue
            for h in port_assignments(n, eset):
                for w in range(n):
                    if _root_matches(h, w, vk, table):
                        _verify_match(h, w, vk, table)
                        return Candidate(h, w)
    return None

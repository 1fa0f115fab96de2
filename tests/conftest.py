"""Shared fixtures and strategies for the test suite."""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import strategies as st

from binox.catalog import graph as catalog_graph
from binox.cover import universal_cover
from binox.enumeration import canonical_graphs
from binox.graphs import PortGraph
from binox.homotopy import simple_cycles
from binox.views import ViewInterner, fold_graph


@lru_cache(maxsize=None)
def all_canonical(n_max: int) -> tuple[PortGraph, ...]:
    return tuple(g for n in range(1, n_max + 1) for g in canonical_graphs(n))


@lru_cache(maxsize=None)
def rp2_lift_split():
    """Simple cycles of the projective plane split by lift closure."""
    g = catalog_graph("rp2")
    res = universal_cover(g)
    lift_of = {}
    for u, v in res.projection.items():
        lift_of.setdefault(v, u)

    def closes(cyc):
        u = lift_of[cyc[0]]
        for i in range(len(cyc) - 1):
            u = res.cover.neighbor(u, g.port_to(cyc[i], cyc[i + 1]))
        return u == lift_of[cyc[0]]

    cycles = simple_cycles(g)
    closed = [c for c in cycles if closes(c)]
    open_ = [c for c in cycles if not closes(c)]
    return closed, open_


def relabel(g: PortGraph, perm) -> PortGraph:
    """Port-preserving isomorphic copy with vertices renamed by perm."""
    return PortGraph(g.n, [(perm[u], perm[v], pu, pv)
                           for u, v, pu, pv in g.edges()])


def small_graphs(n_max: int = 4) -> st.SearchStrategy[PortGraph]:
    """Every canonical connected port graph on <= n_max vertices."""
    return st.sampled_from(all_canonical(n_max))


def walk_ports(g: PortGraph, v: int, ports) -> int:
    """Endpoint of the walk that starts at v and takes the given ports."""
    for p in ports:
        v = g.neighbor(v, p)
    return v


def same_view(g1: PortGraph, v1: int, g2: PortGraph, v2: int, depth: int,
              nonbacktracking: bool = False) -> bool:
    """Do v1 in g1 and v2 in g2 fold to one id in a shared table?"""
    table = ViewInterner()
    return (fold_graph(g1, v1, depth, table, nonbacktracking)
            == fold_graph(g2, v2, depth, table, nonbacktracking))


def walk_tree(g: PortGraph, v: int, depth: int) -> tuple:
    """The depth-``depth`` view at v built naively as nested tuples
    (label, ((out port, in port, subtree), ...)): no memo, no interning.
    An independent oracle for folded views."""
    children = ()
    if depth > 0:
        children = tuple((p, g.back_port(v, p), walk_tree(g, w, depth - 1))
                         for p, w in enumerate(g.neighbors(v)))
    return (g.label(v), children)


@st.composite
def graph_with_vertex(draw, n_max: int = 4):
    g = draw(small_graphs(n_max))
    v = draw(st.integers(0, g.n - 1))
    return g, v


@st.composite
def graph_with_permutation(draw, n_max: int = 4):
    g = draw(small_graphs(n_max))
    perm = draw(st.permutations(range(g.n)))
    return g, tuple(perm)


@st.composite
def closed_walks(draw, n_max: int = 4, max_out: int = 3):
    """A loop built from a walk followed by its own backtrack, possibly
    with stationary steps mixed in.  Always a valid loop of the graph."""
    g = draw(small_graphs(n_max))
    v0 = draw(st.integers(0, g.n - 1))
    out = [v0]
    for _ in range(draw(st.integers(0, max_out))):
        here = out[-1]
        choice = draw(st.integers(-1, g.degree(here) - 1))
        out.append(here if choice < 0 else g.neighbor(here, choice))
    walk = out + out[-2::-1]
    return g, tuple(walk)


def all_closed_walks(g: PortGraph, max_steps: int):
    """Every closed walk of at most max_steps steps, stationary steps
    included, from every basepoint."""
    out = []
    for s in g.vertices:
        stack: list[tuple[int, ...]] = [(s,)]
        while stack:
            w = stack.pop()
            if w[-1] == s:
                out.append(w)
            if len(w) <= max_steps:
                here = w[-1]
                stack.append(w + (here,))
                for p in range(g.degree(here)):
                    stack.append(w + (g.neighbor(here, p),))
    return out


def irreversible_moves(g: PortGraph, max_steps: int):
    """Non-collapse moves on closed walks of <= max_steps steps whose
    result has no move back; empty list means reversibility holds.

    A move back leads to the parent loop, whose e edge and s stationary
    steps give it the lower bound h = (e + 2) // 3 + s.  So only the
    child's move kinds that keep a loop within h are built, as the
    contractibility search builds them under the bound h; the others
    cannot hold the parent."""
    from binox.complexes import clique_complex
    from binox.homotopy import (_build, _edge_stationary_counts, _positions,
                                _scan, neighbor_moves)

    cx = clique_complex(g)
    bad = []
    for loop in all_closed_walks(g, max_steps):
        e, s = _edge_stationary_counts(loop)
        h = (e + 2) // 3 + s
        for mv, nxt in neighbor_moves(loop, cx):
            if mv.kind == "collapse":
                continue
            kinds = _scan(nxt, cx, True, h, *_edge_stationary_counts(nxt))
            if not any(back == loop for kind, found in kinds
                       for back in _build(nxt, kind,
                                          _positions(nxt, cx, kind, found))):
                bad.append((loop, mv, nxt))
    return bad


REVERSIBILITY_FAMILY = ("k1", "p2", "p3", "k3", "k4", "c4", "c5")


@pytest.fixture(scope="session")
def k3():
    return catalog_graph("k3")


@pytest.fixture(scope="session")
def k4():
    return catalog_graph("k4")


@pytest.fixture(scope="session")
def p2():
    return catalog_graph("p2")


@pytest.fixture(scope="session")
def c4():
    return catalog_graph("c4")

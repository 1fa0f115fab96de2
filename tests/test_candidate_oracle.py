"""Exhaustive candidates by development against the raw scan they replaced.

``raw_scan`` keeps the earlier exhaustive branch of ``find_candidate``: it
scans the raw stream of port graphs by vertex count, skips edge sets whose
degree profile cannot hold the root, and returns the first (graph, root)
whose view equals the target.  The development from the view must agree
with it wherever that first match could pass the halting test:

* it finds a candidate exactly where the raw scan's first match h has a
  one-sheet universal cover, and that candidate is isomorphic to h;
* it finds none where the raw scan finds none, or finds an h whose
  universal cover has more than one sheet (or is infinite), which the
  halting test rejects anyway.

So whole runs must halt at the same phase after the same moves, accepting
isomorphic candidates.  Inputs: every canonical port graph on at most 4
vertices, from every start, with both walks: phase ends k = 1..5 on views
folded directly, and whole exhaustive runs under move caps; plus every
catalog terrain from its first and last vertex under move caps.  The raw
stream on 5 vertices has 15,185,928 graphs, so past phase 5 the catalog
runs scan graphs on at most 4 vertices and, where none matches, stand in
the terrain's own universal cover for the first 5-or-more-vertex match:
a match that deep has the terrain's universal cover, so it is that cover
when it has one sheet, and otherwise the rule above asks for None.

Hinted mode once compared views the same way, with ``root_matches``: a
label prefilter, then a fold into the agent's own table.  It now checks
each hint root as the development's re-fold check does.  The two must
pick the same (hint, root) on the same views, and no candidate search,
in either mode, may change the view's table.

That check, ``_has_view``, folds a root while only looking shapes up in
the view's own table.  It once re-interned the view into a fresh table
and folded each root into that copy; ``copy_matcher`` keeps that as the
reference it must agree with.
"""

from functools import lru_cache

import pytest

from binox import explorer
from binox.catalog import graph, names
from binox.cover import isomorphism, universal_cover
from binox.enumeration import (Candidate, _has_view, _view_child, edge_sets,
                               find_candidate, port_assignments)
from binox.errors import KernelFault
from binox.explorer import PhasedAgent, run_agent
from binox.graphs import PortGraph
from binox.views import ViewInterner, fold_graph, view_key

from conftest import all_canonical

WALKS = ("full", "nonbacktracking")
RAW_LIMIT = 5  # the raw scan runs for phases k <= 5: graphs on <= 4 vertices
# move caps of whole runs: small terrains under the non-backtracking walk
# halt well inside them; the full walk reaches phase 3 or 4 on 4 vertices
RUN_MOVES = {"full": 6000, "nonbacktracking": 20000}


def profile_admits(n, eset, root_deg, child_degs):
    """Can some vertex of this edge set have the root's degree and the
    root's sorted neighbor-degree multiset?"""
    deg = [0] * n
    nbrs = [[] for _ in range(n)]
    for u, v in eset:
        deg[u] += 1
        deg[v] += 1
        nbrs[u].append(v)
        nbrs[v].append(u)
    return any(deg[v] == root_deg
               and tuple(sorted(deg[w] for w in nbrs[v])) == child_degs
               for v in range(n))


def root_matches(h, w, vk, table):
    """The earlier view comparison: w must carry the label of the view's
    root and, port by port, the labels of its children; then w's view is
    folded into ``table``, which holds the view under ``vk.ident``, and
    the ids are compared."""
    lab, children = table.key(vk.ident)
    if h.label(w) != lab:
        return False
    if vk.depth >= 1:
        for p, (_, _, c) in enumerate(children):
            if h.label(h.neighbor(w, p)) != table.key(c)[0]:
                return False
    return fold_graph(h, w, vk.depth, table, vk.nonbacktracking) == vk.ident


def raw_scan(vk, k, max_n=None):
    """First (graph, root) on fewer than k (and at most max_n) vertices in
    the raw stream whose view equals the target.  As the earlier branch
    did, it folds the roots it tries into the view's own table."""
    lab, children = vk.table.key(vk.ident)
    root_deg = lab[0]
    child_degs = tuple(sorted(vk.table.key(c)[0][0] for _, _, c in children))
    top = k if max_n is None else min(k, max_n + 1)
    for n in range(1, top):
        for eset in edge_sets(n):
            if vk.depth >= 1 and not profile_admits(n, eset, root_deg,
                                                    child_degs):
                continue
            for h in port_assignments(n, eset):
                for w in range(n):
                    if root_matches(h, w, vk, vk.table):
                        return Candidate(h, w)
    return None


@lru_cache(maxsize=None)
def one_sheet(enc) -> bool:
    """Is this graph its own universal cover?"""
    g = PortGraph(enc[0], enc[1])
    res = universal_cover(g, verify=False)
    return res.finite and res.sheets == 1


def assert_rule(new, old, where):
    """``new`` (development) against ``old`` (raw scan's first match);
    either is a graph or None."""
    if old is not None and one_sheet(old.encoding()):
        assert new is not None, where
        assert isomorphism(new, old) is not None, where
    else:
        assert new is None, where


# -- phase ends ------------------------------------------------------------------


@pytest.mark.parametrize("walk", WALKS)
def test_phase_ends_on_small_graphs(walk):
    nb = walk == "nonbacktracking"
    cases = found = 0
    for g in all_canonical(4):
        for v in g.vertices:
            for k in range(1, RAW_LIMIT + 1):
                table = ViewInterner()
                vk = view_key(table, fold_graph(g, v, 2 * k, table, nb),
                              2 * k, nb)
                new = find_candidate(vk, k)
                old = raw_scan(vk, k)
                where = (g.encoding(), v, walk, k)
                assert_rule(new and new.graph, old and old.graph, where)
                if new is not None:
                    assert new.root == 0, where
                    assert new.graph.n < k, where
                    found += 1
                cases += 1
    assert cases == 2440
    assert found > 100


def test_shallow_views_stop_at_the_horizon(k3, c4):
    """A development needing a node past the view's depth gives None, even
    where the raw scan finds a match; a star closed by a triangle needs
    none."""
    def search(g, depth, k):
        table = ViewInterner()
        vk = view_key(table, fold_graph(g, 0, depth, table), depth)
        return find_candidate(vk, k), raw_scan(vk, k)

    for g, depth in ((k3, 0), (graph("p3"), 1), (c4, 0), (c4, 1)):
        new, old = search(g, depth, 9)
        assert new is None and old is not None
    new, old = search(k3, 1, 4)
    assert isomorphism(new.graph, k3) is not None
    assert isomorphism(old.graph, k3) is not None


def test_refold_rejects_a_forged_view(k3):
    """The development reads only what it needs; the re-fold checks the
    rest.  Here one grandchild in k3's depth-2 view is relabeled as the end
    of a path, which the development, closed by the triangle at depth 1,
    never reads."""
    table = ViewInterner()
    lab, (first, second) = table.key(fold_graph(k3, 0, 2, table))
    child_lab, grandchildren = table.key(first[2])
    p, q, _ = grandchildren[0]
    forged = table.intern((graph("p2").label(0), ()))
    first = (first[0], first[1], table.intern(
        (child_lab, ((p, q, forged),) + grandchildren[1:])))
    vk = view_key(table, table.intern((lab, (first, second))), 2)
    with pytest.raises(KernelFault, match="re-verification"):
        find_candidate(vk, 4)


def test_child_lookup_matches_a_scan_of_the_children():
    """The development reads a view node's child at a port from the slot
    the port sits at (p, or p - 1 past a skipped entry port).  On every
    node of the views the tests here fold (small graphs from every start,
    catalog terrains from their first and last vertex, depths 2k for
    k = 1..RAW_LIMIT, both walks) it agrees, on every port, with a scan of
    the node's children."""
    inputs = [(g, g.vertices) for g in all_canonical(4)]
    inputs += [(g, sorted({0, g.n - 1})) for g in map(graph, names())]
    lookups = 0
    for g, starts in inputs:
        for nb in (False, True):
            table = ViewInterner()
            for v in starts:
                for k in range(1, RAW_LIMIT + 1):
                    fold_graph(g, v, 2 * k, table, nb)
            for x in range(len(table)):
                lab, children = table.key(x)
                for p in range(lab[0]):
                    want = next((c for q, _, c in children if q == p), None)
                    assert _view_child(table, x, p) == want, (x, p)
                    lookups += 1
    assert lookups > 10**4


def copy_matcher(vk):
    """The earlier re-fold check: the view is re-interned into a fresh
    table, each root is folded into that copy, and the ids are compared."""
    fresh, memo = ViewInterner(), {}

    def copy(i):
        if i not in memo:
            lab, children = vk.table.key(i)
            memo[i] = fresh.intern(
                (lab, tuple((p, q, copy(c)) for p, q, c in children)))
        return memo[i]

    expect = copy(vk.ident)
    return lambda h, w: fold_graph(h, w, vk.depth, fresh,
                                   vk.nonbacktracking) == expect


def test_read_only_refold_matches_the_copy():
    """``_has_view`` gives the copy's answer and never writes the table.
    Views: every canonical graph on at most 4 vertices from its first and
    last vertex, and every catalog terrain from vertex 0, both walks,
    depths 0-4.  Roots tried: every root of the canonical graphs on at
    most 3 vertices, and the terrain's own."""
    small = all_canonical(3)
    views = [(g, v) for g in all_canonical(4) for v in sorted({0, g.n - 1})]
    views += [(graph(name), 0) for name in names()]
    outcomes = {True: 0, False: 0}
    for g, v in views:
        for nb in (False, True):
            for depth in range(5):
                table = ViewInterner()
                vk = view_key(table, fold_graph(g, v, depth, table, nb),
                              depth, nb)
                size, digest = len(table), table.digest()
                want = copy_matcher(vk)
                for h in small + (g,):
                    for w in h.vertices:
                        got = _has_view(vk, h, w)
                        assert got == want(h, w), (g.encoding(), v, nb,
                                                   depth, h.encoding(), w)
                        outcomes[got] += 1
                assert (len(table), table.digest()) == (size, digest)
    assert min(outcomes.values()) > 1000, outcomes


# -- whole runs ------------------------------------------------------------------


def oracle_find(terrain, start):
    """find_candidate for the oracle agent: the raw scan on graphs of up to
    4 vertices, and past phase RAW_LIMIT the terrain's universal cover
    where no such graph matches (see the module docstring)."""
    def find(vk, k, mode="exhaustive", hints=()):
        assert mode == "exhaustive"
        got = raw_scan(vk, k, max_n=RAW_LIMIT - 1)
        if got is not None or k <= RAW_LIMIT:
            return got
        res = universal_cover(terrain, start, verify=False)
        if res.finite and res.cover.n < k:
            return Candidate(res.cover, 0)
        return None
    return find


def assert_same_runs(g, start, monkeypatch):
    for walk in WALKS:
        where = (g.encoding(), start, walk)
        cap = RUN_MOVES[walk]
        new = PhasedAgent(walk=walk)
        got = run_agent(g, new, start, cap)
        old = PhasedAgent(walk=walk)
        with monkeypatch.context() as m:
            m.setattr(explorer, "find_candidate", oracle_find(g, start))
            want = run_agent(g, old, start, cap)
        assert got == want, where
        assert new.k == old.k, where
        if new.accepted is not None:
            assert isomorphism(new.accepted.graph,
                               old.accepted.graph) is not None, where
        # interned ids may differ: the raw scan folded the candidates it
        # tried into the agent's table, the development only reads it
        assert len(new.phase_log) == len(old.phase_log), where
        for (k, _, enc, verdict), (k_old, _, enc_old, verdict_old) in zip(
                new.phase_log, old.phase_log):
            assert k == k_old, where
            cand = enc and PortGraph(*enc)
            cand_old = enc_old and PortGraph(*enc_old)
            assert_rule(cand, cand_old, where + (k,))
            if cand is not None:
                assert verdict == verdict_old, where + (k,)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_runs_on_small_graphs(n, monkeypatch):
    for g in all_canonical(4):
        if g.n == n:
            for start in g.vertices:
                assert_same_runs(g, start, monkeypatch)


@pytest.mark.parametrize("name", names())
def test_runs_on_catalog_terrains(name, monkeypatch):
    g = graph(name)
    for start in sorted({0, g.n - 1}):
        assert_same_runs(g, start, monkeypatch)


# -- hinted mode ---------------------------------------------------------------


def old_hinted(vk, k, hints):
    """The earlier hinted branch of ``find_candidate``, folding into a copy
    of the view's table."""
    table = ViewInterner()
    for i in range(len(vk.table)):
        table.intern(vk.table.key(i))
    for h in hints:
        if h.n < k:
            for w in h.vertices:
                if root_matches(h, w, vk, table):
                    return Candidate(h, w)
    return None


def assert_same_hint_matches(g, v, hints):
    """On g's views from v, both walks, k = 1..RAW_LIMIT at depth 2k: the
    hinted search picks the old matcher's (hint, root), and neither
    candidate search writes the view's table."""
    matched = 0
    for nb in (False, True):
        for k in range(1, RAW_LIMIT + 1):
            table = ViewInterner()
            vk = view_key(table, fold_graph(g, v, 2 * k, table, nb), 2 * k, nb)
            keys = [table.key(i) for i in range(len(table))]
            where = (g.encoding(), v, nb, k)
            want = old_hinted(vk, k, hints)
            got = find_candidate(vk, k, "hinted", hints)
            assert (got and (got.graph.encoding(), got.root)) \
                == (want and (want.graph.encoding(), want.root)), where
            assert [table.key(i) for i in range(len(table))] == keys, where
            find_candidate(vk, k)
            assert [table.key(i) for i in range(len(table))] == keys, where
            matched += got is not None
    return matched


def test_hint_matches_on_small_graphs():
    small = all_canonical(3)
    assert len(small) == 5
    calls = matched = 0
    for g in all_canonical(4):
        for v in g.vertices:
            matched += assert_same_hint_matches(g, v, small + (g,))
            calls += 2 * RAW_LIMIT
    assert calls == 4880
    assert matched > 100


def test_hint_matches_on_catalog_terrains():
    terrains = tuple(graph(name) for name in names())
    for g in terrains:
        for v in sorted({0, g.n - 1}):
            assert_same_hint_matches(g, v, terrains)

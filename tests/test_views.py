"""Views, view equality, folds, and their serialization."""

import dataclasses

import pytest
from hypothesis import given, settings

from binox.catalog import cycle_graph, graph, names, vertex_map
from binox.explorer import _count
from binox.enumeration import _has_view
from binox.views import ViewInterner, _fold, fold_graph, format_view, view_key

from conftest import all_canonical, graph_with_vertex, same_view, walk_tree

K3_VIEW_DEPTH2 = (
    "view depth=2\n"
    "[] (2, (1, 0), ((0, 1, 0, 1),))\n"
    "  [0|1] (2, (1, 0), ((0, 1, 0, 1),))\n"
    "    [0|1] (2, (1, 0), ((0, 1, 0, 1),))\n"
    "    [1|0] (2, (1, 0), ((0, 1, 0, 1),))\n"
    "  [1|0] (2, (1, 0), ((0, 1, 0, 1),))\n"
    "    [0|1] (2, (1, 0), ((0, 1, 0, 1),))\n"
    "    [1|0] (2, (1, 0), ((0, 1, 0, 1),))\n"
)


# -- construction ------------------------------------------------------------------


def test_depth_zero_view_is_single_labelled_node(k3):
    table = ViewInterner()
    ident = fold_graph(k3, 0, 0, table)
    assert table.key(ident) == (k3.label(0), ())
    assert format_view(table, ident, 0) == f"view depth=0\n[] {k3.label(0)}\n"


@pytest.mark.parametrize("v", [-1, 3])
def test_vertex_outside_the_graph_is_rejected(v):
    with pytest.raises(ValueError, match=f"vertex {v} .*3-vertex"):
        fold_graph(graph("p3"), v, 1, ViewInterner())


def test_p2_view_is_a_path(p2):
    table = ViewInterner()
    ident = fold_graph(p2, 0, 2, table)
    for _ in range(2):
        _label, children = table.key(ident)
        assert len(children) == 1
        ident = children[0][2]
    assert table.key(ident)[1] == ()


def test_consistent_triangle_views_agree_everywhere(k3):
    for k in range(5):
        for v in (1, 2):
            assert same_view(k3, 0, k3, v, k)


def test_view_children_follow_ports(k4):
    table = ViewInterner()
    _label, children = table.key(fold_graph(k4, 0, 1, table))
    assert [p for p, _q, _c in children] == [0, 1, 2]


# -- equality ---------------------------------------------------------------------


def test_view_eq_reflexive(k4):
    assert same_view(k4, 2, k4, 2, 3)


def test_c4_and_c8_vertices_indistinguishable():
    c4, c8 = cycle_graph(4), cycle_graph(8)
    for k in range(7):
        assert same_view(c4, 0, c8, 3, k)


def test_p2_endpoints_indistinguishable(p2):
    assert same_view(p2, 0, p2, 1, 1)


def test_distinguishable_vertices_differ(c4):
    p3 = graph("p3")
    assert not same_view(p3, 0, p3, 1, 2)
    # both roots have degree 2, but the path's ends show at depth 1
    assert not same_view(c4, 0, p3, 1, 3)


# -- invariants --------------------------------------------------------------------


@given(graph_with_vertex(), graph_with_vertex())
@settings(max_examples=40)
def test_deeper_view_restricts_to_shallower(a, b):
    """Equal views at depth k + 1 are equal at depth k."""
    g1, v1 = a
    others = [(h, w) for h in (g1, b[0]) for w in h.vertices]
    for g2, v2 in others:
        for k in range(3):
            if same_view(g1, v1, g2, v2, k + 1):
                assert same_view(g1, v1, g2, v2, k)


def walk_tree_size(g, v, k, nonbacktracking=False, entry=None):
    """Independent node-count oracle: 1 + sum over neighbours at k-1, the
    entry port skipped on the non-backtracking walk."""
    if k == 0:
        return 1
    return 1 + sum(walk_tree_size(g, w, k - 1, nonbacktracking,
                                  g.back_port(v, p))
                   for p, w in enumerate(g.neighbors(v))
                   if not (nonbacktracking and p == entry))


@given(graph_with_vertex())
@settings(max_examples=40)
def test_node_count_matches_walk_count(gv):
    """The rendered view has one line per walk-tree node, plus its header."""
    g, v = gv
    table = ViewInterner()
    for k in range(4):
        text = format_view(table, fold_graph(g, v, k, table), k)
        assert len(text.splitlines()) - 1 == walk_tree_size(g, v, k)


def test_covering_preserves_views():
    for name in ("c8_to_c4", "rp2_cover_to_rp2"):
        f, src, dst = vertex_map(name)
        for u in src.vertices:
            for k in range(3):
                assert same_view(src, u, dst, f[u], k)


# -- folds -------------------------------------------------------------------------


@given(graph_with_vertex(), graph_with_vertex())
@settings(max_examples=60)
def test_fold_equality_is_view_equality(a, b):
    g1, v1 = a
    g2, v2 = b
    for k in (0, 2, 3):
        assert same_view(g1, v1, g2, v2, k) == (walk_tree(g1, v1, k)
                                                == walk_tree(g2, v2, k))


@given(graph_with_vertex(), graph_with_vertex())
@settings(max_examples=60)
def test_nonbacktracking_fold_same_relation(a, b):
    g1, v1 = a
    g2, v2 = b
    for k in (2, 4):
        assert (same_view(g1, v1, g2, v2, k, nonbacktracking=True)
                == same_view(g1, v1, g2, v2, k))


def test_find_only_reads_the_table(k3, k4):
    """find gives an interned key's id and raises KeyError for any other
    key, leaving the table as it was."""
    table = ViewInterner()
    fold_graph(k3, 0, 3, table)
    size, digest = len(table), table.digest()
    assert [table.find(table.key(i)) for i in range(size)] == list(range(size))
    with pytest.raises(KeyError):
        table.find((k4.label(0), ()))
    with pytest.raises(KeyError):
        _fold(k4, 0, None, 3, table.find, False, {})
    assert (len(table), table.digest()) == (size, digest)


def test_view_key_is_the_folded_view(k3):
    """A view key is (table, ident, depth, walk) and nothing else."""
    table = ViewInterner()
    ident = fold_graph(k3, 0, 2, table, True)
    key = view_key(table, ident, 2, True)
    assert [f.name for f in dataclasses.fields(key)] \
        == ["table", "ident", "depth", "nonbacktracking"]
    assert (key.table, key.ident, key.depth, key.nonbacktracking) \
        == (table, ident, 2, True)
    assert not view_key(table, ident, 2).nonbacktracking


def recursive_fold(g, v, depth, table, nonbacktracking=False):
    """fold_graph as one call per walk-tree node (the earlier form)."""
    memo = {}

    def rec(u, entry, rem):
        mk = (u, entry, rem) if nonbacktracking else (u, rem)
        if mk not in memo:
            children = []
            for p in range(g.degree(u) if rem > 0 else 0):
                if nonbacktracking and entry is not None and p == entry:
                    continue
                bp = g.back_port(u, p)
                children.append((p, bp, rec(g.neighbor(u, p), bp, rem - 1)))
            memo[mk] = table.intern((g.label(u), tuple(children)))
        return memo[mk]

    return rec(v, None, depth)


def recursive_format(table, ident, depth):
    lines = [f"view depth={depth}"]

    def rec(i, level, arc):
        lab, children = table.key(i)
        lines.append("  " * level + f"{arc} {lab}")
        for p, q, c in children:
            rec(c, level + 1, f"[{p}|{q}]")

    rec(ident, 0, "[]")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("nonbacktracking", (False, True))
def test_folds_match_the_recursive_fold(nonbacktracking):
    """Same ids, same table contents in the same order and same text as
    the recursive functions, and the node counts of the explorer's
    counting interner, on every canonical graph on at most 4 vertices and
    every catalog terrain, from every vertex."""
    terrains = all_canonical(4) + tuple(graph(name) for name in names())
    for g in terrains:
        for depth in range(5):
            got, want = ViewInterner(), ViewInterner()
            ids = [fold_graph(g, v, depth, got, nonbacktracking)
                   for v in g.vertices]
            assert ids == [recursive_fold(g, v, depth, want, nonbacktracking)
                           for v in g.vertices]
            sizes = {}  # shared, as explore shares it
            assert ([_fold(g, v, None, depth, _count, nonbacktracking, sizes)
                     for v in g.vertices]
                    == [walk_tree_size(g, v, depth, nonbacktracking)
                        for v in g.vertices])
            assert got.digest() == want.digest()
            if depth <= 2 and not nonbacktracking:
                assert all(format_view(got, i, depth)
                           == recursive_format(want, i, depth) for i in ids)


def test_fold_deeper_than_the_recursion_limit(p2):
    """p2's depth-d view is a path: one new shape per depth.  The
    read-only re-fold of candidate search goes as deep: p3's depth-5000
    view is found at its own root and not at the other end's."""
    table = ViewInterner()
    ident = fold_graph(p2, 0, 5000, table)
    assert ident == 5000 and len(table) == 5001
    p3, table = graph("p3"), ViewInterner()
    vk = view_key(table, fold_graph(p3, 0, 5000, table), 5000)
    size = len(table)
    assert _has_view(vk, p3, 0) and not _has_view(vk, p3, 2)
    assert len(table) == size


# -- serialization ------------------------------------------------------------------


def test_view_serialization_golden(k3):
    table = ViewInterner()
    assert format_view(table, fold_graph(k3, 0, 2, table), 2) == K3_VIEW_DEPTH2


def test_view_serialization_deterministic(k4):
    """Equal views render equally, whatever else their tables hold."""
    t1, t2 = ViewInterner(), ViewInterner()
    fold_graph(graph("rp2"), 0, 3, t2)
    assert (format_view(t1, fold_graph(k4, 1, 3, t1), 3)
            == format_view(t2, fold_graph(k4, 1, 3, t2), 3))

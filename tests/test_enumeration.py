"""Graph enumeration order, canonicity, and candidate search."""

from itertools import permutations

import pytest
from hypothesis import given, settings

from binox.catalog import cycle_graph, graph
from binox.enumeration import (Candidate, bfs_encoding, canonical_encoding,
                               canonical_graphs, edge_sets, find_candidate,
                               port_assignments, raw_graphs)
from binox.views import ViewInterner, fold_graph, view_key

from conftest import graph_with_permutation, relabel, same_view


# -- streams ------------------------------------------------------------------------


def test_edge_sets_ordered_by_count_then_lex():
    sets3 = list(edge_sets(3))
    assert sets3 == [
        ((0, 1), (0, 2)),
        ((0, 1), (1, 2)),
        ((0, 2), (1, 2)),
        ((0, 1), (0, 2), (1, 2)),
    ]


def test_edge_sets_span_connected():
    for eset in edge_sets(4):
        seen = {0}
        frontier = [0]
        while frontier:
            u = frontier.pop()
            for a, b in eset:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in seen:
                        seen.add(y)
                        frontier.append(y)
        assert seen == {0, 1, 2, 3}


def test_port_assignments_cover_all_orderings():
    path = ((0, 1), (1, 2))
    got = [g.encoding() for g in port_assignments(3, path)]
    assert len(got) == 2  # middle vertex picks which end is port 0
    assert len(set(got)) == 2


def test_streams_are_deterministic():
    a = [g.encoding() for n in (1, 2, 3) for g in canonical_graphs(n)]
    b = [g.encoding() for n in (1, 2, 3)
         for g in canonical_graphs.__wrapped__(n)]  # recomputed, not cached
    assert a == b
    assert ([g.encoding() for g in raw_graphs(3)]
            == [g.encoding() for g in raw_graphs(3)])


# -- canonicity ---------------------------------------------------------------------


def test_class_counts_small():
    assert [len(canonical_graphs(n)) for n in (1, 2, 3, 4)] == [1, 1, 3, 119]


def test_three_vertex_classes_by_hand():
    # one path (its two port choices at the middle are swapped by the
    # end-exchanging isomorphism) and the two port classes of the triangle
    sizes = sorted(sum(1 for _ in g.edges()) for g in canonical_graphs(3))
    assert sizes == [2, 3, 3]
    tri_a, tri_b = [g for g in canonical_graphs(3)
                    if sum(1 for _ in g.edges()) == 3]
    assert all(relabel(tri_a, p).encoding() != tri_b.encoding()
               for p in permutations(range(3)))


def test_counts_match_permutation_dedupe():
    for n in (2, 3, 4):
        classes = {
            min(relabel(g, p).encoding() for p in permutations(range(n)))
            for g in raw_graphs(n)
        }
        assert len(classes) == len(canonical_graphs(n))


def test_canonical_representatives_are_fixpoints():
    for n in (1, 2, 3, 4):
        for g in canonical_graphs(n):
            assert g.encoding() == canonical_encoding(g)
            assert g.encoding() == min(bfs_encoding(g, b) for b in g.vertices)


def test_canonical_encodings_pairwise_distinct():
    encs = [canonical_encoding(g)
            for n in (1, 2, 3, 4) for g in canonical_graphs(n)]
    assert len(set(encs)) == len(encs) == 124


def test_every_raw_graph_has_a_canonical_twin():
    reps = {g.encoding() for g in canonical_graphs(3)}
    for g in raw_graphs(3):
        assert canonical_encoding(g) in reps


@given(graph_with_permutation())
@settings(max_examples=60)
def test_canonical_encoding_is_iso_invariant(gp):
    g, perm = gp
    assert canonical_encoding(relabel(g, perm)) == canonical_encoding(g)


# -- candidate search ---------------------------------------------------------------


def search(g, v, depth, k, **kw):
    """find_candidate on g's depth-``depth`` view at v, folded in a fresh table."""
    table = ViewInterner()
    vk = view_key(table, fold_graph(g, v, depth, table), depth)
    return find_candidate(vk, k, **kw)


def test_triangle_found_at_phase_four(k3):
    got = search(k3, 0, 4, 4)
    assert got is not None
    assert got.graph.n == 3
    assert canonical_encoding(got.graph) == canonical_encoding(k3)
    assert same_view(got.graph, got.root, k3, 0, 4)


def test_single_edge_found_at_phase_three(p2):
    got = search(p2, 0, 3, 3)
    assert got is not None
    assert got.graph.n == 2
    assert canonical_encoding(got.graph) == canonical_encoding(p2)


def test_square_view_has_no_small_candidate(c4):
    # c4's universal cover is infinite, so no development closes; the hint
    # list still yields c4 itself once it is small enough
    assert search(c4, 0, 4, 4) is None
    assert search(c4, 0, 4, 5) is None
    assert search(c4, 0, 4, 4, mode="hinted", hints=[c4]) is None
    got = search(c4, 0, 4, 5, mode="hinted", hints=[c4])
    assert got is not None
    assert got.graph.encoding() == c4.encoding()


def test_candidate_search_is_deterministic(k3):
    a = search(k3, 1, 3, 4)
    b = search(k3, 1, 3, 4)
    assert (a.graph.encoding(), a.root) == (b.graph.encoding(), b.root)


def test_hinted_search_scans_hints_only(k3, k4):
    got = search(k3, 0, 3, 4, mode="hinted", hints=[k4, k3])
    assert got is not None
    assert got.graph.encoding() == k3.encoding()
    # a hint at or above the size bound is skipped
    assert search(k3, 0, 3, 3, mode="hinted", hints=[k3]) is None
    assert search(k3, 0, 3, 4, mode="hinted", hints=[k4]) is None


def test_view_key_target_with_its_table(p2):
    """The view key carries the table that folded it; candidate search
    takes no other."""
    table = ViewInterner()
    ident = fold_graph(p2, 0, 3, table)
    vk = view_key(table, ident, 3)
    assert (vk.table, vk.ident, vk.depth) == (table, ident, 3)
    got = find_candidate(vk, 3)
    assert got is not None and got.graph.n == 2
    with pytest.raises(TypeError):
        find_candidate(vk, 3, table=table)


def test_bad_targets_and_modes_rejected(k3):
    with pytest.raises(TypeError):
        find_candidate(k3, 4)
    with pytest.raises(ValueError):
        search(k3, 0, 2, 4, mode="greedy")


def test_candidate_is_earliest_in_stream_order():
    # a depth-0 view ends at the root, so developing past it needs a node
    # beyond the horizon: no candidate, however large k is; the hint list
    # is scanned in order, first match wins
    c8 = cycle_graph(8)
    assert search(c8, 0, 0, 9) is None
    hints = [graph("p3"), cycle_graph(5), c8]
    got = search(c8, 0, 0, 9, mode="hinted", hints=hints)
    assert got.graph.encoding() == hints[1].encoding()
    assert same_view(got.graph, got.root, c8, 0, 0)

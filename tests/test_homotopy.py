"""Elementary loop moves, bounded contractibility, and simple cycles."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from binox import homotopy
from binox.catalog import graph
from binox.complexes import clique_complex
from binox.config import Budgets
from binox.errors import (BudgetExceeded, GraphFormatError,
                          SearchBudgetExceeded)
from binox.homotopy import (Move, all_simple_cycles_k_contractible,
                            contraction_certificate, free_reduction,
                            is_k_contractible, min_contraction_moves,
                            neighbor_moves, simple_cycles)

from conftest import (REVERSIBILITY_FAMILY, closed_walks, irreversible_moves,
                      small_graphs)


@pytest.fixture(scope="module")
def k3x(k3):
    return clique_complex(k3)


@pytest.fixture(scope="module")
def k4x(k4):
    return clique_complex(k4)


@pytest.fixture(scope="module")
def c4x(c4):
    return clique_complex(c4)


# -- move generation ----------------------------------------------------------------


def test_backtrack_loop_deletes_to_trivial(p2):
    cx = clique_complex(p2)
    nbrs = neighbor_moves((0, 1, 0), cx)
    assert (Move("delete_backtrack", 0), (0,)) in nbrs


def test_triangle_loop_contracts_and_deletes(k3x):
    nbrs = neighbor_moves((0, 1, 2, 0), k3x)
    assert (Move("contract_triangle", 0, (1,)), (0, 2, 0)) in nbrs
    assert (Move("delete_triangle", 0, (1, 2)), (0,)) in nbrs


def test_trivial_loop_offers_only_backtrack_insertions(c4x):
    nbrs = neighbor_moves((0,), c4x)
    assert set(nbrs) == {
        (Move("insert_backtrack", 0, (1,)), (0, 1, 0)),
        (Move("insert_backtrack", 0, (3,)), (0, 3, 0)),
    }


def test_no_move_introduces_stationary_steps(k4x):
    # collapse is one-way, so stationary-free loops stay stationary-free
    for loop in ((0,), (0, 1, 0), (0, 1, 2, 0)):
        for _, nxt in neighbor_moves(loop, k4x):
            assert all(nxt[i] != nxt[i + 1] for i in range(len(nxt) - 1))


def test_stationary_step_collapses(k3x):
    nbrs = neighbor_moves((0, 0, 1, 0), k3x)
    assert (Move("collapse", 0), (0, 1, 0)) in nbrs


def test_expand_triangle_reroutes(k4x):
    nbrs = neighbor_moves((0, 1, 0), k4x)
    assert (Move("expand_triangle", 0, (2,)), (0, 2, 1, 0)) in nbrs
    assert (Move("expand_triangle", 0, (3,)), (0, 3, 1, 0)) in nbrs


def test_moves_determine_their_results(k3x, k4x):
    """A move names its result: replaying by move is well defined."""
    for cx in (k3x, k4x):
        for loop in ((0,), (0, 1, 0), (0, 1, 2, 0), (0, 0, 1, 2, 1, 0)):
            moves = neighbor_moves(loop, cx)
            assert len(dict(moves)) == len(moves)


def test_unavailable_move_is_not_offered(c4x):
    move = Move("delete_triangle", 0, (1, 2))
    assert move not in dict(neighbor_moves((0, 1, 0), c4x))


def test_moves_preserve_basepoint_and_closedness(k4x):
    for loop in ((0,), (0, 1, 2, 0), (0, 1, 0, 2, 0)):
        for _, nxt in neighbor_moves(loop, k4x):
            assert nxt[0] == loop[0]
            assert nxt[-1] == loop[0]


def test_move_reversibility_spot_check():
    # the exhaustive 6-step family lives in the acceptance suite
    for name in REVERSIBILITY_FAMILY:
        steps = 4 if name == "k4" else 5
        assert irreversible_moves(graph(name), steps) == []


# -- free reduction -----------------------------------------------------------------


def test_free_reduction_examples():
    assert free_reduction((0, 1, 0)) == ((0,), 1)
    assert free_reduction((0, 0)) == ((0,), 1)
    assert free_reduction((0, 1, 1, 0)) == ((0,), 2)
    assert free_reduction((0, 1, 2, 3, 0)) == ((0, 1, 2, 3, 0), 0)


@given(closed_walks())
@settings(max_examples=60)
def test_palindrome_walks_fully_reduce(gw):
    g, walk = gw
    red, moves = free_reduction(walk)
    assert red == (walk[0],)
    assert moves <= len(walk) - 1
    # reduction is a real move sequence, so the search agrees within it
    assert is_k_contractible(walk, clique_complex(g), moves)


# -- contractibility ----------------------------------------------------------------


def test_backtrack_contracts_in_one_move(p2):
    cx = clique_complex(p2)
    assert is_k_contractible((0, 1, 0), cx, 1)
    assert not is_k_contractible((0, 1, 0), cx, 0)


def test_triangle_boundary_is_one_move(k3x):
    assert min_contraction_moves((0, 1, 2, 0), k3x, 3) == 1
    assert is_k_contractible((0, 1, 2, 0), k3x, 3)


def test_square_cycle_never_contracts(c4x):
    assert not is_k_contractible((0, 1, 2, 3, 0), c4x, 20)


def test_k4_square_needs_two_moves(k4x):
    loop = (0, 1, 2, 3, 0)
    assert min_contraction_moves(loop, k4x, 5) == 2
    assert not is_k_contractible(loop, k4x, 1)
    assert is_k_contractible(loop, k4x, 2)


def test_trivial_loop_contracts_in_zero(k3x):
    assert is_k_contractible((2,), k3x, 0)


@pytest.mark.parametrize("name", ["c4", "k3"])  # free reduction, search
def test_negative_bound_is_rejected(name):
    cx = clique_complex(graph(name))
    with pytest.raises(ValueError, match="negative move bound"):
        is_k_contractible((0, 1, 0), cx, -1)


# (terrain, a vertex not adjacent to 0): free reduction, then the search
@pytest.mark.parametrize("name, far", [("c4", 2), ("octahedron", 3)])
def test_invalid_loops_are_rejected(name, far):
    cx = clique_complex(graph(name))
    for loop, message in (((), "empty walk"),
                          ((0, 9, 0), "walk vertex 9 out of range"),
                          ((0, far, 0), f"walk step 0-{far} is not an edge"),
                          ((0, 1, 1), "loop does not close: starts at 0, "
                                      "ends at 1")):
        with pytest.raises(GraphFormatError, match=message):
            is_k_contractible(loop, cx, 5)


@given(closed_walks(n_max=3))
@settings(max_examples=30, deadline=None)
def test_contractibility_monotone_in_k(gw):
    g, walk = gw
    cx = clique_complex(g)
    m = min_contraction_moves(walk, cx, 8)
    if m is None:
        return
    for k in range(m + 3):
        assert is_k_contractible(walk, cx, k) == (k >= m)


def test_exhausted_search_raises_not_false():
    cx = clique_complex(graph("octahedron"))
    with pytest.raises(SearchBudgetExceeded):
        is_k_contractible((0, 1, 2, 0), cx, 20, Budgets(search_states=5))


def test_exhausted_search_says_what_was_capped():
    cx = clique_complex(graph("octahedron"))
    with pytest.raises(SearchBudgetExceeded) as info:
        is_k_contractible((0, 1, 2, 0), cx, 20, Budgets(search_states=5))
    exc = info.value
    # counted at the first expansion: the start and its 57 children
    # within the bound, all of neighbor_moves' list
    assert len(neighbor_moves((0, 1, 2, 0), cx)) == 57
    assert (exc.what, exc.cap, exc.reached) == ("search states", 5, 58)
    assert str(exc) == ("contractibility search passed 5 states "
                        "(loop length 3, bound 20)")


def test_certificate_replays_to_trivial():
    cx = clique_complex(graph("octahedron"))
    for loop in simple_cycles(cx.graph)[:40]:
        cert = contraction_certificate(loop, cx, 14)
        assert cert is not None and len(cert) <= 14
        cur = loop
        for mv, nxt in cert:
            cur = dict(neighbor_moves(cur, cx))[mv]
            assert cur == nxt
        assert cur == (loop[0],)


def test_certificate_gives_up_without_claiming(c4x):
    assert contraction_certificate((0, 1, 2, 3, 0), c4x, 3) is None


# -- simple cycles ------------------------------------------------------------------


def test_trees_have_no_cycles():
    assert simple_cycles(graph("tree7")) == []
    assert simple_cycles(graph("p3")) == []


def test_triangle_has_one_cycle(k3):
    assert simple_cycles(k3) == [(0, 1, 2, 0)]


def test_k4_has_four_triangles_and_three_squares(k4):
    cycles = simple_cycles(k4)
    assert len(cycles) == 7
    assert sum(1 for c in cycles if len(c) == 4) == 4
    assert sum(1 for c in cycles if len(c) == 5) == 3


def test_cycle_canonical_form(k4):
    for c in simple_cycles(k4):
        assert c[0] == c[-1] == min(c)
        assert c[1] < c[-2]
        assert len(set(c[:-1])) == len(c) - 1


def cycle_oracle(g):
    """Permutation-based enumeration, independent of the DFS."""
    out = []
    for r in range(3, g.n + 1):
        for sub in permutations(range(g.n), r):
            if sub[0] != min(sub) or sub[1] > sub[-1]:
                continue
            if all(g.has_edge(sub[i], sub[i + 1]) for i in range(r - 1)) \
                    and g.has_edge(sub[-1], sub[0]):
                out.append(sub + (sub[0],))
    return sorted(out, key=lambda c: (len(c), c))


def test_cycles_match_oracle_on_catalog():
    for name in ("k4", "c4", "c5", "c6", "chordal6", "octahedron"):
        g = graph(name)
        assert simple_cycles(g) == cycle_oracle(g)


@given(small_graphs())
@settings(max_examples=40)
def test_cycles_match_oracle(g):
    assert simple_cycles(g) == cycle_oracle(g)


def test_cycle_cap_is_enforced(monkeypatch):
    monkeypatch.setattr(homotopy, "CYCLE_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        simple_cycles(graph("octahedron"))


def test_cycle_cap_error_says_what_was_capped(monkeypatch):
    monkeypatch.setattr(homotopy, "CYCLE_BUDGET", 10)
    with pytest.raises(BudgetExceeded) as info:
        simple_cycles(graph("octahedron"))
    exc = info.value
    assert (exc.what, exc.cap, exc.reached) == ("simple cycles", 10, 11)
    assert str(exc) == "more than 10 simple cycles"


# -- the halting test ---------------------------------------------------------------


def test_halting_test_examples(k3, c4):
    assert all_simple_cycles_k_contractible(k3, 4)
    assert not all_simple_cycles_k_contractible(c4, 20)
    assert all_simple_cycles_k_contractible(graph("k1"), 0)
    assert all_simple_cycles_k_contractible(graph("tree7"), 0)


def test_halting_test_propagates_budget_errors(k4, monkeypatch):
    monkeypatch.setattr(homotopy, "CYCLE_BUDGET", 3)
    with pytest.raises(BudgetExceeded):
        all_simple_cycles_k_contractible(k4, 5)

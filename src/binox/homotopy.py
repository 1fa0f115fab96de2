"""Elementary moves on based loops and bounded contractibility.

A loop is a closed walk given as a vertex tuple (first == last, stationary
steps allowed).  The move set, all preserving the basepoint:

  * insert_backtrack / delete_backtrack: ... a ... <-> ... a w a ...
  * expand_triangle / contract_triangle: ... a b ... <-> ... a w b ...
    when {a, w, b} spans a 2-simplex (one side of the triangle traded for
    the other two);
  * insert_triangle / delete_triangle:   ... a ... <-> ... a x y a ...
    when {a, x, y} spans a 2-simplex (a whole triangle circuit at a point);
  * collapse: ... a a ... -> ... a ... (stationary step removed; one-way).

Rotating a loop is NOT a move; two rotations of the same cycle are distinct
loops here.  A loop is k-contractible when at most k moves take it to the
trivial loop at its basepoint.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from functools import cache
from itertools import compress, count
from operator import eq
from typing import NamedTuple

from .complexes import CliqueComplex, clique_complex
from .config import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceeded, GraphFormatError, SearchBudgetExceeded
from .graphs import PortGraph

Loop = tuple[int, ...]

CYCLE_BUDGET = 10**6  # enumerated simple cycles per graph


class Move(NamedTuple):
    """One elementary move.  ``index`` is the position it acts at; ``data``
    carries the inserted vertex/vertices where applicable."""

    kind: str
    index: int
    data: tuple[int, ...] = ()


# -- move kinds ---------------------------------------------------------------
#
# ``_scan`` lists every kind's positions in a loop in one call: an index i
# for the removing kinds, a pair (i, inserted) for the inserting ones, one
# per child.  It reads the removing kinds off the loop's steps and windows
# of three.  The windows that are triangle paths are contract_triangle's
# positions, and delete_triangle's are those followed by their start: in
# a closed walk, (a, x, y, a) with a, x, y distinct steps along three
# edges, so {a, x, y} is a 3-clique, a 2-simplex, and (a, x, y) a triangle
# path.  expand_triangle is only counted, since most of its children are
# never built; its lister lists them when they are.


def _backtrack_insertions(loop: Loop, cx: CliqueComplex) -> list:
    # (a,) -> (a, w, a)
    steps = cx.back_steps
    return [(i, w) for i, a in enumerate(loop) for w in steps[a]]


def _triangle_expansions(loop: Loop, cx: CliqueComplex) -> list:
    # (a, b) -> (a, w, b)
    thirds = cx.thirds
    return [(i, w) for i, ab in enumerate(zip(loop, loop[1:]))
            for w in thirds.get(ab, ())]


def _triangle_insertions(loop: Loop, cx: CliqueComplex) -> list:
    # (a,) -> (a, x, y, a)
    pairs = cx.triangle_pairs
    return [(i, xy) for i, a in enumerate(loop) for xy in pairs[a]]


class _Kind(NamedTuple):
    """A move kind.  Its child at position i is
    ``loop[:i + 1] + inserted + loop[i + cut:]``.  A removing kind inserts
    nothing and its Move.data is ``loop[i + 1:i + 1 + recorded]``; an
    inserting kind (``recorded`` None) records what it inserts.  ``_scan``
    gives a kind's positions, or for a kind with a ``lister`` only their
    count, and the lister then lists them."""

    name: str
    de: int  # edge steps a move adds to its loop
    ds: int  # stationary steps a move adds to its loop
    cut: int
    recorded: int | None
    lister: Callable[[Loop, CliqueComplex], list] | None = None


# in queue order; a child's step counts are its parent's plus (de, ds)
_KINDS = (
    _Kind("collapse", 0, -1, 2, 0),
    _Kind("delete_backtrack", -2, 0, 3, 0),
    _Kind("contract_triangle", -1, 0, 2, 1),
    _Kind("delete_triangle", -3, 0, 4, 2),
    _Kind("insert_backtrack", 2, 0, 0, None),
    _Kind("expand_triangle", 1, 0, 1, None, _triangle_expansions),
    _Kind("insert_triangle", 3, 0, 0, None),
)
(_COLLAPSE, _DELETE_BACKTRACK, _CONTRACT_TRIANGLE, _DELETE_TRIANGLE,
 _INSERT_BACKTRACK, _EXPAND_TRIANGLE, _INSERT_TRIANGLE) = _KINDS


def _scan(loop: Loop, cx: CliqueComplex, insertions: bool, bound: int | None,
          e: int, s: int) -> list[tuple[_Kind, list | int]]:
    """(kind, found) for each kind that has a move in the loop and keeps
    its children within the bound, in queue order, found being the kind's
    positions, or for expand_triangle their count.  e and s are the
    loop's edge and stationary step counts.  No child loop is built.

    A child's lower bound (e + de + 2) // 3 + s + ds is at most the bound
    exactly when de + 3 * ds <= 3 * (bound - s) - e, the slack.  Each
    kind's de + 3 * ds is written out below, in parentheses where the
    code does not test it; none exceeds 3, so a slack of 3 keeps every
    kind (bound None).  insertions=False leaves out the pure insertions.
    The loop must be a closed walk of cx's graph, since the deleting
    kinds read a backtrack or a triangle circuit off its vertices alone.
    """
    slack = 3 if bound is None else 3 * (bound - s) - e
    out: list[tuple[_Kind, list | int]] = []
    if slack < -3:  # no kind's children are within the bound
        return out
    steps, triples = loop[1:], loop[2:]
    if s:  # collapse (-3): (a, a) -> (a,); s counts its positions
        out.append((_COLLAPSE, list(compress(count(), map(eq, loop, steps)))))
    if slack >= -2:  # delete_backtrack: (a, w, a) -> (a,), w != a
        found = list(compress(count(), map(eq, loop, triples)))
        if s:
            found = [i for i in found if loop[i + 1] != loop[i]]
        if found:
            out.append((_DELETE_BACKTRACK, found))
    # contract_triangle: (a, w, b) -> (a, b); delete_triangle (-3)
    found = list(compress(count(), map(cx.triangle_paths.__contains__,
                                       zip(loop, steps, triples))))
    if found:
        if slack >= -1:
            out.append((_CONTRACT_TRIANGLE, found))
        last = len(loop) - 3  # (a, x, y, a) -> (a,)
        if found := [i for i in found if i < last and loop[i + 3] == loop[i]]:
            out.append((_DELETE_TRIANGLE, found))
    if slack < 1:
        return out
    if insertions and slack >= 2:  # insert_backtrack: (a,) -> (a, w, a)
        if found := _backtrack_insertions(loop, cx):
            out.append((_INSERT_BACKTRACK, found))
    # expand_triangle (1): (a, b) -> (a, w, b), counted per step
    if found := sum(map(cx.third_counts.__getitem__, zip(loop, steps))):
        out.append((_EXPAND_TRIANGLE, found))
    if insertions and slack >= 3:  # insert_triangle: (a,) -> (a, x, y, a)
        if found := _triangle_insertions(loop, cx):
            out.append((_INSERT_TRIANGLE, found))
    return out


def _positions(loop: Loop, cx: CliqueComplex, kind: _Kind,
               found: list | int) -> list:
    """A scanned kind's positions, listed now if its scan only counted."""
    return found if kind.lister is None else kind.lister(loop, cx)


def _build(loop: Loop, kind: _Kind, positions: list) -> list[Loop]:
    """The children of one kind at its positions, in their order."""
    cut = kind.cut
    if kind.recorded is None:
        return [loop[:i + 1] + ins + loop[i + cut:] for i, ins in positions]
    return [loop[:i + 1] + loop[i + cut:] for i in positions]


def _move(loop: Loop, kind: _Kind, position) -> tuple[str, int, Loop]:
    """The (kind, index, data) fields of the kind's move at a position."""
    if kind.recorded is None:
        return (kind.name, *position)
    return kind.name, position, loop[position + 1:position + 1 + kind.recorded]


# Returned paths share one Move per distinct (kind, index, data), so callers
# that keep many certificates do not keep one object per step.
_shared_move = cache(Move)


def neighbor_moves(loop: Loop, cx: CliqueComplex) -> list[tuple[Move, Loop]]:
    """All (move, loop one move away) pairs, in a fixed deterministic
    order: every kind's children, kinds in queue order (collapse,
    delete_backtrack, contract_triangle, delete_triangle,
    insert_backtrack, expand_triangle, insert_triangle), each kind's by
    position.  The loop must be a closed walk of cx's graph, as
    ``_check_query`` asks of a search's loop and every move keeps it: the
    deleting kinds read a backtrack or a triangle off the walk's vertices
    alone.

    ``_search`` does not call this but expands a loop from the same
    ``_scan``, one call per loop that reads every kind at once: it keeps
    the kinds within its bound, leaving out the pure insertions where it
    does not need them, and builds one kind's children only when the
    queue reaches them.  It lists expand_triangle's positions only then,
    and forms a Move only for the steps of a path it returns.
    """
    e, s = _edge_stationary_counts(loop)
    new = tuple.__new__  # a Move without NamedTuple's Python-level __new__
    out: list[tuple[Move, Loop]] = []
    for kind, found in _scan(loop, cx, True, None, e, s):
        positions = _positions(loop, cx, kind, found)
        out += zip([new(Move, _move(loop, kind, p)) for p in positions],
                   _build(loop, kind, positions))
    return out


def free_reduction(loop: Loop) -> tuple[Loop, int]:
    """Cancel stationary steps and backtracks; return (reduced, moves used).

    Each collapse is one move, each backtrack deletion one move.  In a
    triangle-free complex these are the only shrinking moves, reduction is
    confluent, and the returned count is the exact contraction cost when
    the reduced loop is trivial.
    """
    red = [loop[0]]
    moves = 0
    for v in loop[1:]:
        if v == red[-1]:
            moves += 1
        elif len(red) >= 2 and red[-2] == v:
            red.pop()
            moves += 1
        else:
            red.append(v)
    return tuple(red), moves


def _edge_stationary_counts(loop: Loop) -> tuple[int, int]:
    s = sum(map(eq, loop, loop[1:]))
    return len(loop) - 1 - s, s


def _check_query(loop: Loop, cx: CliqueComplex, k: int) -> None:
    """GraphFormatError unless the loop is a closed walk of the complex's
    graph (stationary steps allowed); ValueError when k < 0."""
    if not loop:
        raise GraphFormatError("empty walk")
    n, has_edge = cx.graph.n, cx.graph.has_edge
    for v in loop:
        if not 0 <= v < n:
            raise GraphFormatError(f"walk vertex {v} out of range")
    for a, b in zip(loop, loop[1:]):
        if a != b and not has_edge(a, b):
            raise GraphFormatError(f"walk step {a}-{b} is not an edge")
    if loop[0] != loop[-1]:
        raise GraphFormatError(
            f"loop does not close: starts at {loop[0]}, ends at {loop[-1]}"
        )
    if k < 0:
        raise ValueError("negative move bound")


def _search(loop: Loop, cx: CliqueComplex, k: int, budgets: Budgets,
            want_path: bool, greedy: bool = False):
    """Optimal-move search, states pruned to cost + heuristic <= k.

    Returns (reachable, path) where path is the move list on success and
    want_path is set.  Raises SearchBudgetExceeded past the state cap.

    By default this is plain A*: the first goal pop is a minimal sequence
    and a False return is an exhaustive negative.  ``greedy`` weights the
    heuristic 8-fold in the queue priority only (the <= k prune keeps the
    admissible bound) and drops the insertion moves, trading minimality
    for speed; use it for certificates only.  A triangle-free complex
    drops the insertions either way: by the free-reduction argument (see
    ``free_reduction``) they never shorten a contraction there.

    Partial expansion: every child of one move kind gets the same queue
    key, so expanding a loop is one ``_scan`` call, which reads every
    kind off the loop's windows at once, and one queue entry per kind
    within the bound; that kind's children are built, deduplicated and
    queued when its entry is popped, under the entry's key and tie in
    scan order.  expand_triangle, whose children are the most numerous
    and the least often built, is only counted at expansion, and its
    positions are listed on pop.  Children are built without their
    Moves: each records its parent, kind and position, and a Move is
    formed only for the steps of the returned path.  The loops expanded,
    their order, the verdict and the path are those of building every
    child at expansion.  The state cap counts, at each expansion, every
    child within the bound, repeats included (plus the start loop),
    since unbuilt children cannot be told apart; that is never fewer
    than the distinct loops an eager search would hold, so a capped
    search stops no later than it would.
    """
    _check_query(loop, cx, k)
    weight = 8 if greedy else 1
    insertions = not greedy and cx.dimension >= 2
    target: Loop = (loop[0],)
    start = tuple(loop)
    if start == target:
        return True, []
    cap = budgets.search_states
    # one move removes at most 3 edge steps, or exactly 1 stationary step;
    # each queue entry carries its loops' counts, and a child's counts are
    # its parent's plus the fixed delta of the move kind
    e0, s0 = _edge_stationary_counts(start)
    h0 = (e0 + 2) // 3 + s0
    if h0 > k:
        return False, None
    states = 1  # counted against the cap: the start and every scanned child
    best: dict[Loop, int] = {start: 0}
    parents: dict[Loop, tuple[Loop, _Kind, object]] = {}
    tie = count()
    push, pop, get = heapq.heappush, heapq.heappop, best.get
    # (f, g, tie, j, loop, e, s) queues a loop, j its place in its kind's
    # scan; (f, g, tie, -1, (parent, kind, found), e, s) a kind's unbuilt
    # children, with their f, g and counts
    heap: list[tuple] = [(weight * h0, 0, next(tie), 0, start, e0, s0)]
    while heap:
        f, gc, t, j, cur, e, s = pop(heap)
        if j < 0:
            parent, kind, found = cur
            positions = _positions(parent, cx, kind, found)
            for j, nxt in enumerate(_build(parent, kind, positions)):
                old = get(nxt)
                if old is not None and old <= gc:
                    continue
                best[nxt] = gc
                if want_path:
                    parents[nxt] = (parent, kind, positions[j])
                push(heap, (f, gc, t, j, nxt, e, s))
            continue
        if best[cur] != gc:
            continue  # stale entry
        if cur == target:
            if not want_path:
                return True, None
            path: list[tuple[Move, Loop]] = []
            node = cur
            while node != start:
                prev, kind, position = parents[node]
                path.append((_shared_move(*_move(prev, kind, position)),
                             node))
                node = prev
            path.reverse()
            return True, path
        ng = gc + 1
        # the bound keeps exactly the kinds whose children have ng + nh <= k
        for kind, found in _scan(cur, cx, insertions, k - ng, e, s):
            states += len(found) if kind.lister is None else found
            ne, ns = e + kind.de, s + kind.ds
            push(heap, (ng + weight * ((ne + 2) // 3 + ns), ng, next(tie), -1,
                        (cur, kind, found), ne, ns))
        if states > cap:
            raise SearchBudgetExceeded(
                f"contractibility search passed {cap} states "
                f"(loop length {len(loop) - 1}, bound {k})",
                what="search states", cap=cap, reached=states)
    return False, None


def is_k_contractible(loop: Loop, cx: CliqueComplex, k: int,
                      budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """Can at most k moves take the loop to its trivial basepoint loop?

    SearchBudgetExceeded (never False) when the state cap is hit, so an
    exhausted search cannot be mistaken for a certified negative.
    ValueError when k < 0, on every complex.
    """
    if cx.dimension < 2:
        _check_query(loop, cx, k)
        red, moves = free_reduction(loop)
        return len(red) == 1 and moves <= k
    reachable, _ = _search(loop, cx, k, budgets, want_path=False)
    return reachable


def contraction_sequence(loop: Loop, cx: CliqueComplex, k: int,
                         budgets: Budgets = DEFAULT_BUDGETS
                         ) -> list[tuple[Move, Loop]] | None:
    """A minimal move sequence contracting the loop, or None beyond k moves.

    Each entry is (move, loop after the move); the last loop is trivial.
    """
    reachable, path = _search(loop, cx, k, budgets, want_path=True)
    return path if reachable else None


def min_contraction_moves(loop: Loop, cx: CliqueComplex, k: int,
                          budgets: Budgets = DEFAULT_BUDGETS) -> int | None:
    """Exact minimal move count, or None if it exceeds k."""
    seq = contraction_sequence(loop, cx, k, budgets)
    return None if seq is None else len(seq)


def contraction_certificate(loop: Loop, cx: CliqueComplex, k: int,
                            budgets: Budgets = DEFAULT_BUDGETS
                            ) -> list[tuple[Move, Loop]] | None:
    """Some move sequence of length <= k contracting the loop, or None.

    Greedy (weighted, insertion-free) search: much faster than
    contraction_sequence on triangle-rich complexes but the certificate
    need not be minimal, and None only means this search failed, not that
    no sequence exists.  ``contracts_within`` tries it before exact A*,
    so the halting test and the cover audit get a replayable witness for
    each "yes" it finds.
    """
    reachable, path = _search(loop, cx, k, budgets, want_path=True,
                              greedy=True)
    return path if reachable else None


def contracts_within(loop: Loop, cx: CliqueComplex, k: int,
                     budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """``is_k_contractible``'s verdict, certificate first.

    On a complex with triangles a greedy ``contraction_certificate``
    within k is tried first; one in hand proves the loop k-contractible.
    When it finds none, or passes the state cap, exact A* decides (or
    raises its own SearchBudgetExceeded).  A triangle-free complex goes
    straight to free reduction.  So the verdict is the exact one wherever
    the exact search returns, and True where only a certificate exists.
    """
    if cx.dimension >= 2:
        try:
            if contraction_certificate(loop, cx, k, budgets) is not None:
                return True
        except SearchBudgetExceeded:
            pass
    return is_k_contractible(loop, cx, k, budgets)


# -- simple cycles -----------------------------------------------------------


def simple_cycles(g: PortGraph) -> list[Loop]:
    """Every simple cycle of length >= 3, once, as a canonical based loop.

    Canonical form: starts and ends at the cycle's smallest vertex, and of
    the two directions takes the one whose second vertex is smaller than
    its last.  Output sorted by (length, vertex tuple).  BudgetExceeded
    past CYCLE_BUDGET.
    """
    cap = CYCLE_BUDGET
    found: list[Loop] = []
    for s in g.vertices:
        stack: list[tuple[int, ...]] = [(s,)]
        while stack:
            path = stack.pop()
            last = path[-1]
            for w in g.neighbors(last):
                if w == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        found.append(path + (s,))
                        if len(found) > cap:
                            raise BudgetExceeded(
                                f"more than {cap} simple cycles",
                                what="simple cycles", cap=cap,
                                reached=len(found))
                elif w > s and w not in path:
                    stack.append(path + (w,))
    found.sort(key=lambda c: (len(c), c))
    return found


def all_simple_cycles_k_contractible(g: PortGraph, k: int) -> bool:
    """The halting test: every simple cycle contracts within k moves.

    Each cycle goes through ``contracts_within``: a "yes" is a replayable
    greedy certificate of at most k moves, and exact A* runs only on the
    cycles the greedy search fails on, so a "no" is always exact.
    Vacuously true on acyclic graphs.  Budget errors (too many cycles, or
    the exact search's state cap) propagate rather than turning into
    verdicts.
    """
    cx = clique_complex(g)
    for cyc in simple_cycles(g):
        if not contracts_within(cyc, cx, k):
            return False
    return True

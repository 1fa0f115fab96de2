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
from functools import cache
from itertools import count
from typing import NamedTuple

from .complexes import CliqueComplex
from .config import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceeded, SearchBudgetExceeded
from .graphs import PortGraph, check_walk

Loop = tuple[int, ...]


class Move(NamedTuple):
    """One elementary move.  ``index`` is the position it acts at; ``data``
    carries the inserted vertex/vertices where applicable."""

    kind: str
    index: int
    data: tuple[int, ...] = ()


# (edge steps, stationary steps) that a move of each kind adds to its loop
_STEP_DELTAS: dict[str, tuple[int, int]] = {
    "collapse": (0, -1),
    "delete_backtrack": (-2, 0),
    "contract_triangle": (-1, 0),
    "delete_triangle": (-3, 0),
    "insert_backtrack": (2, 0),
    "expand_triangle": (1, 0),
    "insert_triangle": (3, 0),
}

# Returned paths share one Move per distinct (kind, index, data), so callers
# that keep many certificates do not keep one object per step.
_shared_move = cache(Move)


def neighbor_moves(loop: Loop, cx: CliqueComplex,
                   insertions: bool = True) -> list[tuple[Move, Loop]]:
    """All loops one move away, in a fixed deterministic order.

    insertions=False omits the two pure-insertion kinds (backtrack and
    whole-triangle insertion), which only ever grow the loop; searches
    that just need a shrinking witness can skip them for a much smaller
    branching factor.  Length-preserving rerouting (expand_triangle) is
    always kept.
    """
    g = cx.graph
    m = len(loop) - 1
    out: list[tuple[Move, Loop]] = []

    for i in range(m):  # collapse
        if loop[i] == loop[i + 1]:
            out.append((Move("collapse", i), loop[:i] + loop[i + 1:]))

    for i in range(m - 1):  # delete_backtrack
        a, w = loop[i], loop[i + 1]
        if loop[i + 2] == a and w != a and g.has_edge(a, w):
            out.append((Move("delete_backtrack", i), loop[:i + 1] + loop[i + 3:]))

    for i in range(m - 1):  # contract_triangle: (a, w, b) -> (a, b)
        a, w, b = loop[i], loop[i + 1], loop[i + 2]
        if a != b and w != a and w != b and w in cx.triangle_thirds(a, b):
            out.append((Move("contract_triangle", i, (w,)),
                        loop[:i + 1] + loop[i + 2:]))

    for i in range(m - 2):  # delete_triangle: (a, x, y, a) -> (a,)
        a, x, y = loop[i], loop[i + 1], loop[i + 2]
        if (loop[i + 3] == a and x != y and a not in (x, y)
                and y in cx.triangle_thirds(a, x)):
            out.append((Move("delete_triangle", i, (x, y)),
                        loop[:i + 1] + loop[i + 4:]))

    if insertions:
        for i in range(m + 1):  # insert_backtrack
            a = loop[i]
            for w in g.neighbors(a):
                out.append((Move("insert_backtrack", i, (w,)),
                            loop[:i + 1] + (w, a) + loop[i + 1:]))

    for i in range(m):  # expand_triangle: (a, b) -> (a, w, b)
        a, b = loop[i], loop[i + 1]
        if a != b:
            for w in cx.triangle_thirds(a, b):
                out.append((Move("expand_triangle", i, (w,)),
                            loop[:i + 1] + (w,) + loop[i + 1:]))

    if insertions:
        for i in range(m + 1):  # insert_triangle
            a = loop[i]
            for s in cx.triangles_at(a):
                x, y = (z for z in s if z != a)
                for first, second in ((x, y), (y, x)):
                    out.append((Move("insert_triangle", i, (first, second)),
                                loop[:i + 1] + (first, second, a) + loop[i + 1:]))

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
    e = s = 0
    for a, b in zip(loop, loop[1:]):
        if a == b:
            s += 1
        else:
            e += 1
    return e, s


def _check_query(loop: Loop, cx: CliqueComplex, k: int) -> None:
    check_walk(cx.graph, loop, closed=True, stationary_ok=True)
    if k < 0:
        raise ValueError("negative move bound")


def _search(loop: Loop, cx: CliqueComplex, k: int, budgets: Budgets,
            want_path: bool, weight: int = 1, insertions: bool = True):
    """Optimal-move search, states pruned to cost + heuristic <= k.

    Returns (reachable, path) where path is the move list on success and
    want_path is set.  Raises SearchBudgetExceeded past the state cap.

    With weight = 1 this is plain A*: the first goal pop is a minimal
    sequence and a False return is an exhaustive negative.  weight > 1
    inflates only the queue priority (the <= k prune keeps the admissible
    bound), trading minimality for speed; use it for certificates only.
    """
    _check_query(loop, cx, k)
    target: Loop = (loop[0],)
    start = tuple(loop)
    if start == target:
        return True, []
    cap = budgets.search_states
    # one move removes at most 3 edge steps, or exactly 1 stationary step;
    # each heap entry carries its loop's counts, and a child's counts are
    # its parent's plus the fixed delta of the move kind
    e0, s0 = _edge_stationary_counts(start)
    h0 = (e0 + 2) // 3 + s0
    if h0 > k:
        return False, None
    deltas = _STEP_DELTAS
    best: dict[Loop, int] = {start: 0}
    parents: dict[Loop, tuple[Loop, Move]] = {}
    tie = count()
    heap: list[tuple[int, int, int, Loop, int, int]] = [
        (weight * h0, 0, next(tie), start, e0, s0)]
    while heap:
        f, gc, _, cur, e, s = heapq.heappop(heap)
        if best.get(cur, -1) != gc:
            continue  # stale entry
        if cur == target:
            if not want_path:
                return True, None
            path: list[tuple[Move, Loop]] = []
            node = cur
            while node != start:
                prev, mv = parents[node]
                path.append((_shared_move(*mv), node))
                node = prev
            path.reverse()
            return True, path
        ng = gc + 1
        for mv, nxt in neighbor_moves(cur, cx, insertions):
            de, ds = deltas[mv.kind]
            ne, ns = e + de, s + ds
            nh = (ne + 2) // 3 + ns
            if ng + nh > k:
                continue
            old = best.get(nxt)
            if old is not None and old <= ng:
                continue
            best[nxt] = ng
            if want_path:
                parents[nxt] = (cur, mv)
            heapq.heappush(heap, (ng + weight * nh, ng, next(tie), nxt, ne, ns))
            if len(best) > cap:
                raise SearchBudgetExceeded(
                    f"contractibility search passed {cap} states "
                    f"(loop length {len(loop) - 1}, bound {k})"
                )
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
                            budgets: Budgets = DEFAULT_BUDGETS,
                            weight: int = 8
                            ) -> list[tuple[Move, Loop]] | None:
    """Some move sequence of length <= k contracting the loop, or None.

    Greedy (weighted, insertion-free) search: much faster than
    contraction_sequence on triangle-rich complexes but the certificate
    need not be minimal, and None only means this search failed, not that
    no sequence exists.  Meant for verification passes that need an
    upper-bound witness.
    """
    reachable, path = _search(loop, cx, k, budgets, want_path=True,
                              weight=weight, insertions=False)
    return path if reachable else None


# -- simple cycles -----------------------------------------------------------


def simple_cycles(g: PortGraph, budgets: Budgets = DEFAULT_BUDGETS) -> list[Loop]:
    """Every simple cycle of length >= 3, once, as a canonical based loop.

    Canonical form: starts and ends at the cycle's smallest vertex, and of
    the two directions takes the one whose second vertex is smaller than
    its last.  Output sorted by (length, vertex tuple).  BudgetExceeded
    past budgets.cycles.
    """
    cap = budgets.cycles
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
                            raise BudgetExceeded(f"more than {cap} simple cycles")
                elif w > s and w not in path:
                    stack.append(path + (w,))
    found.sort(key=lambda c: (len(c), c))
    return found


def all_simple_cycles_k_contractible(g: PortGraph, k: int,
                                     cx: CliqueComplex | None = None,
                                     budgets: Budgets = DEFAULT_BUDGETS) -> bool:
    """The halting test: every simple cycle contracts within k moves.

    Vacuously true on acyclic graphs.  Budget errors propagate rather than
    turning into verdicts.
    """
    if cx is None:
        from .complexes import clique_complex
        cx = clique_complex(g, budgets)
    for cyc in simple_cycles(g, budgets):
        if not is_k_contractible(cyc, cx, k, budgets):
            return False
    return True

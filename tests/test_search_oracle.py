"""The contractibility search against the eager search it replaced.

``homotopy._search`` expands a loop by scanning it (``homotopy._scan``)
and queues one entry per move kind; a kind's children are built only when
its entry is popped.  Each entry carries its loops' (edge steps,
stationary steps), and a child's heuristic comes from a fixed delta per
move kind.  The oracle below is the eager search: it builds every child
with ``neighbor_moves`` at expansion and rescans each one to compute its
heuristic.  On the same input both must give the same verdicts, minimal
counts and certificates after the same number of expansions (calls of
``_scan``), and the same budget errors: both count, at each expansion,
every child within the bound against the state cap.  A second check
runs the oracle with the count it used before, the distinct loops held,
and shows that the new count only ever stops a search earlier.

``_search`` scans only the kinds within its remaining bound.  The move
list is checked against a scanning oracle that reads the graph and the
simplex set instead of the complex's move tables, and what ``_search``
builds under each bound against that list, filtered by kind name and by
each child's own rescanned step counts.  expand_triangle is scanned as a
count and listed only when built; on every loop scanned here the count
must equal the oracle's number of expand_triangle children.  Besides
every walk on the small graphs, both checks run on the simple cycles of
every catalog terrain with triangles (all of them, or a seeded sample).

In a triangle-free complex both searches leave out backtrack insertions;
a check with the oracle keeping them shows they never shorten a
contraction there.

``_scan`` reads every kind in one call, taking delete_triangle's
positions from the triangle paths.  The per-kind scans it replaced are
kept below as references, and it must give their (kind, found) list
under every bound on every walk of the small graphs and every sampled
catalog cycle.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from functools import cache
from itertools import compress, count, permutations
from operator import eq

import pytest

import binox.homotopy as H
from binox.catalog import graph, vertex_map
from binox.complexes import clique_complex
from binox.config import DEFAULT_BUDGETS, Budgets
from binox.enumeration import canonical_graphs
from binox.errors import SearchBudgetExceeded

from conftest import all_canonical, all_closed_walks, rp2_lift_split

WALK_STEPS = 6
SHORT_WALK_STEPS = 3
BOUND = 6  # move bound of the searches on small graphs
CERTIFICATE_MOVES = 20  # as in the acceptance gate's rp2 certificates
SAMPLE_CYCLES = 40  # seeded sample per catalog terrain
# every catalog terrain with triangles
CATALOG_TERRAINS = ("k3", "k4", "chordal6", "octahedron", "icosahedron", "rp2",
                    "rp2_cover")
SAMPLE_BUDGETS = Budgets(search_states=1000)
SAMPLE_VERDICT_BOUNDS = (2, 3, 4)  # exhaustive negatives within the cap
SMALL_CAPS = range(1, 51)  # state caps of the searches on small graphs
# expansions (_scan calls) of the exact rp2 open-lift negatives, by bound
EXACT_NEGATIVE_CALLS = {5: 2853, 6: 12727}
# the kinds that only ever grow the loop, left out by name
PURE_INSERTIONS = ("insert_backtrack", "insert_triangle")


def rescanning_heuristic(loop):
    # one move removes at most 3 edge steps, or exactly 1 stationary step
    e, s = H._edge_stationary_counts(loop)
    return (e + 2) // 3 + s


def rescanning_search(loop, cx, k, budgets, want_path, weight=1,
                      insertions=True, distinct=False):
    """The eager search: same queue and prune, every child built at
    expansion, heuristic recomputed from every child loop.  The state cap
    counts the start and, at each expansion, every child within the
    bound, repeats included; ``distinct`` counts the distinct loops held
    instead, checked after each new one, as the search once did."""
    if k < 0:
        raise ValueError("negative move bound")
    target = (loop[0],)
    start = tuple(loop)
    if start == target:
        return True, []
    cap = budgets.search_states
    h0 = rescanning_heuristic(start)
    if h0 > k:
        return False, None
    states = 1
    best = {start: 0}
    parents = {}
    tie = count()
    heap = [(weight * h0, 0, next(tie), start)]
    while heap:
        f, gc, _, cur = heapq.heappop(heap)
        if best.get(cur, -1) != gc:
            continue
        if cur == target:
            if not want_path:
                return True, None
            path = []
            node = cur
            while node != start:
                prev, mv = parents[node]
                path.append((mv, node))
                node = prev
            path.reverse()
            return True, path
        for mv, nxt in H.neighbor_moves(cur, cx):
            if not insertions and mv.kind in PURE_INSERTIONS:
                continue
            ng = gc + 1
            nh = rescanning_heuristic(nxt)
            if ng + nh > k:
                continue
            states += 1
            old = best.get(nxt)
            if old is not None and old <= ng:
                continue
            best[nxt] = ng
            if want_path:
                parents[nxt] = (cur, mv)
            heapq.heappush(heap, (ng + weight * nh, ng, next(tie), nxt))
            if distinct and len(best) > cap:
                raise SearchBudgetExceeded(f"passed {cap} states",
                                           reached=len(best))
        if not distinct and states > cap:
            raise SearchBudgetExceeded(f"passed {cap} states", reached=states)
    return False, None


@dataclass(frozen=True)
class Capped:
    """A search that raised SearchBudgetExceeded, as a result."""

    reached: int


class CheckedScan:
    """Stands in for ``_scan``, which runs once per expansion in both
    searches (through ``neighbor_moves`` in the oracle): counts the calls
    and, while ``check`` is set, checks the loop's step counts it is
    given and expand_triangle's scanned count against the scanning
    oracle's, then builds every scanned child and checks its step counts
    against its parent's plus its move kind's delta, and against the
    bound."""

    def __init__(self, real):
        self.real = real
        self.calls = 0
        self.check = True

    def __call__(self, loop, cx, insertions, bound, e, s):
        self.calls += 1
        out = self.real(loop, cx, insertions, bound, e, s)
        if not self.check:
            return out
        assert H._edge_stationary_counts(loop) == (e, s), loop
        for kind, found in out:
            positions = H._positions(loop, cx, kind, found)
            assert positions and (insertions or kind.name not in
                                  PURE_INSERTIONS), (loop, kind)
            if kind.name == "expand_triangle":  # scanned as a count
                assert found == len(positions) \
                    == len(scanning_expansions(loop, cx)), (loop, found)
            for nxt in H._build(loop, kind, positions):
                assert H._edge_stationary_counts(nxt) \
                    == (e + kind.de, s + kind.ds), (loop, kind.name, nxt)
                assert bound is None or rescanning_heuristic(nxt) <= bound, \
                    (loop, kind.name, nxt, bound)
        return out


@pytest.fixture
def moves(monkeypatch):
    checked = CheckedScan(H._scan)
    monkeypatch.setattr(H, "_scan", checked)
    return checked


def run(moves, fn, *args, **kw):
    """(result, expansions), with a budget error as a Capped result.
    Step counts are checked on the search under test, not on the oracle."""
    moves.calls = 0
    moves.check = fn is not rescanning_search
    try:
        got = fn(*args, **kw)
    except SearchBudgetExceeded as exc:
        got = Capped(exc.reached)
    return got, moves.calls


def searched(moves, loop, cx, k, budgets, greedy=False):
    """The oracle's path (None when unreachable) and its expansions, with
    the search's switches: ``greedy`` weights the heuristic 8-fold and
    drops the insertions, which a triangle-free complex drops too."""
    got, calls = run(moves, rescanning_search, loop, cx, k, budgets,
                     want_path=True, weight=8 if greedy else 1,
                     insertions=not greedy and cx.dimension >= 2)
    return (got if isinstance(got, Capped) else got[1]), calls


def assert_same_verdict(moves, loop, cx, k, budgets):
    """is_k_contractible agrees with the oracle, call for call."""
    verdict = run(moves, H.is_k_contractible, loop, cx, k, budgets)
    if cx.dimension >= 2:
        got, calls = run(moves, rescanning_search, loop, cx, k, budgets,
                         want_path=False)
        assert verdict == ((got if isinstance(got, Capped) else got[0]),
                           calls), (loop, k)
    else:
        # triangle-free: decided by free reduction, without a search
        path, _ = searched(moves, loop, cx, k, budgets)
        if not isinstance(path, Capped):
            assert verdict == (path is not None, 0), (loop, k)


def assert_same_searches(moves, loop, cx, k, budgets):
    """min_contraction_moves, is_k_contractible just below the minimum (at
    k when there is none) and contraction_certificate agree with the
    oracle, call for call."""
    path, calls = searched(moves, loop, cx, k, budgets)
    m = path if path is None or isinstance(path, Capped) else len(path)
    assert run(moves, H.min_contraction_moves, loop, cx, k, budgets) \
        == (m, calls), loop

    assert_same_verdict(moves, loop, cx,
                        k if m is None or isinstance(m, Capped)
                        else max(m - 1, 0),
                        budgets)

    assert run(moves, H.contraction_certificate, loop, cx, k, budgets) \
        == searched(moves, loop, cx, k, budgets, greedy=True), loop


def scanning_thirds(cx, a, b):
    """The third vertices of the triangles on edge {a, b}, ascending, read
    from the graph and the simplex set (a != b)."""
    return sorted(w for w in cx.graph.neighbors(a)
                  if w != b and tuple(sorted((a, b, w))) in cx.simplices)


def scanning_expansions(loop, cx):
    """``scanning_moves``' expand_triangle children."""
    out = []
    for i in range(len(loop) - 1):
        a, b = loop[i], loop[i + 1]
        if a != b:
            for w in scanning_thirds(cx, a, b):
                out.append((H.Move("expand_triangle", i, (w,)),
                            loop[:i + 1] + (w,) + loop[i + 1:]))
    return out


def scanning_moves(loop, cx):
    """``neighbor_moves`` as it was before the complex carried move tables:
    every condition tested on the graph and the simplex set, one position
    at a time."""
    g = cx.graph
    m = len(loop) - 1
    out = []
    for i in range(m):
        if loop[i] == loop[i + 1]:
            out.append((H.Move("collapse", i), loop[:i] + loop[i + 1:]))
    for i in range(m - 1):
        a, w = loop[i], loop[i + 1]
        if loop[i + 2] == a and w != a and g.has_edge(a, w):
            out.append((H.Move("delete_backtrack", i),
                        loop[:i + 1] + loop[i + 3:]))
    for i in range(m - 1):
        a, w, b = loop[i:i + 3]
        if a != b and w != a and w != b and w in scanning_thirds(cx, a, b):
            out.append((H.Move("contract_triangle", i, (w,)),
                        loop[:i + 1] + loop[i + 2:]))
    for i in range(m - 2):
        a, x, y = loop[i:i + 3]
        if (loop[i + 3] == a and x != y and a not in (x, y)
                and y in scanning_thirds(cx, a, x)):
            out.append((H.Move("delete_triangle", i, (x, y)),
                        loop[:i + 1] + loop[i + 4:]))
    for i in range(m + 1):
        a = loop[i]
        for w in g.neighbors(a):
            out.append((H.Move("insert_backtrack", i, (w,)),
                        loop[:i + 1] + (w, a) + loop[i + 1:]))
    out += scanning_expansions(loop, cx)
    for i in range(m + 1):
        a = loop[i]
        for s in sorted(s for s in cx.simplices if len(s) == 3 and a in s):
            x, y = (z for z in s if z != a)
            for first, second in ((x, y), (y, x)):
                out.append((H.Move("insert_triangle", i, (first, second)),
                            loop[:i + 1] + (first, second, a)
                            + loop[i + 1:]))
    return out


def assert_same_moves(loop, cx):
    """The move list equals the scanning oracle's.  For both insertions
    values and every bound from -1 up to the largest child's, what
    ``_search`` builds (``_scan``, then ``_build`` per kind at the kind's
    positions) is that list without the pure insertions when they are
    left out, filtered to the children within the bound, in the same
    order, and expand_triangle's scanned count is its number of children
    in the scanning oracle."""
    every = H.neighbor_moves(loop, cx)
    assert every == scanning_moves(loop, cx), loop
    assert all(type(mv) is H.Move for mv, _ in every)
    e, s = H._edge_stationary_counts(loop)
    for insertions in (True, False):
        kept = [c for c in every
                if insertions or c[0].kind not in PURE_INSERTIONS]
        lows = [rescanning_heuristic(nxt) for _, nxt in kept]
        for bound in range(-1, max(lows, default=0) + 1):
            want = [c for c, low in zip(kept, lows) if low <= bound]
            got = []
            for kind, found in H._scan(loop, cx, insertions, bound, e, s):
                positions = H._positions(loop, cx, kind, found)
                assert positions, (loop, kind)
                if kind.name == "expand_triangle":  # scanned as a count
                    assert found == len(positions) \
                        == len(scanning_expansions(loop, cx)), (loop, found)
                got += zip([H._move(loop, kind, p) for p in positions],
                           H._build(loop, kind, positions))
            assert got == want, (loop, insertions, bound)


def shape(g):
    """The underlying simple graph up to isomorphism."""
    return min(tuple(sorted(tuple(sorted((p[u], p[v])))
                            for u, v, _, _ in g.edges()))
               for p in permutations(range(g.n)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_search_matches_rescanning_oracle_on_small_graphs(moves, n):
    # Port numberings of one underlying graph differ only in the order of
    # insert_backtrack's children (neighbors come in port order), so the
    # first numbering of each shape takes every walk of WALK_STEPS steps
    # and the others every walk of SHORT_WALK_STEPS: all of them would
    # take minutes on the 59 numberings of k4.
    shapes = set()
    for g in canonical_graphs(n):
        s = shape(g)
        steps = SHORT_WALK_STEPS if s in shapes else WALK_STEPS
        shapes.add(s)
        cx = clique_complex(g)
        for loop in all_closed_walks(g, steps):
            assert_same_searches(moves, loop, cx, BOUND, DEFAULT_BUDGETS)


def test_insertions_never_help_without_triangles():
    """On a triangle-free complex the exact search leaves out backtrack
    insertions.  The oracle with them finds no shorter contraction, and
    both minima are free reduction's count.  Moves ignore ports, so one
    port numbering per underlying graph is enough."""
    shapes = set()
    for g in all_canonical(4):
        cx = clique_complex(g)
        if cx.dimension >= 2 or shape(g) in shapes:
            continue
        shapes.add(shape(g))
        for loop in all_closed_walks(g, WALK_STEPS):
            reduced, cost = H.free_reduction(loop)
            want = cost if len(reduced) == 1 and cost <= BOUND else None
            _, path = rescanning_search(loop, cx, BOUND, DEFAULT_BUDGETS,
                                        want_path=True)
            assert (None if path is None else len(path)) == want, loop
            assert H.min_contraction_moves(loop, cx, BOUND) == want, loop


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_moves_match_scanning_oracle_on_small_graphs(n):
    shapes = set()
    for g in canonical_graphs(n):
        s = shape(g)
        if s in shapes:
            continue
        shapes.add(s)
        cx = clique_complex(g)
        for loop in all_closed_walks(g, WALK_STEPS):
            assert_same_moves(loop, cx)


def catalog_sample(name):
    """The terrain's complex and its simple cycles: all of them when there
    are fewer than SAMPLE_CYCLES, else a seeded sample of SAMPLE_CYCLES.
    rp2_cover has more simple cycles than homotopy.CYCLE_BUDGET, so its
    sample lifts a seeded sample of rp2's closed-lift cycles through the
    catalog's covering map; each lift is a simple cycle of the cover."""
    rng = random.Random(20151)
    if name == "rp2_cover":
        f, g, _ = vertex_map("rp2_cover_to_rp2")
        first = {}  # one cover vertex over each vertex of rp2
        for u in g.vertices:
            first.setdefault(f[u], u)
        cycles = []
        for cyc in rng.sample(rp2_lift_split()[0], SAMPLE_CYCLES):
            lift = [first[cyc[0]]]
            for v in cyc[1:]:
                lift += [w for w in g.neighbors(lift[-1]) if f[w] == v]
            assert len(lift) == len(cyc) and lift[-1] == lift[0], cyc
            cycles.append(tuple(lift))
        return clique_complex(g), cycles
    g = graph(name)
    cycles = H.simple_cycles(g)
    if len(cycles) >= SAMPLE_CYCLES:
        cycles = rng.sample(cycles, SAMPLE_CYCLES)
    return clique_complex(g), cycles


# -- the per-kind scans that ``_scan`` replaced -------------------------------


def reference_collapses(loop, cx):  # (a, a) -> (a,)
    return list(compress(count(), map(eq, loop, loop[1:])))


def reference_backtrack_deletions(loop, cx):
    # (a, w, a) -> (a,); a closed walk steps along an edge from a to w != a
    return [i for i in compress(count(), map(eq, loop, loop[2:]))
            if loop[i + 1] != loop[i]]


def reference_triangle_contractions(loop, cx):
    # (a, w, b) -> (a, b)
    return list(compress(count(), map(cx.triangle_paths.__contains__,
                                      zip(loop, loop[1:], loop[2:]))))


def reference_triangle_deletions(loop, cx):
    # (a, x, y, a) -> (a,); in a closed walk three distinct vertices a, x,
    # y are pairwise adjacent, and every 3-clique is a 2-simplex
    return [i for i in compress(count(), map(eq, loop, loop[3:]))
            if loop[i] != loop[i + 1] != loop[i + 2] != loop[i]]


def reference_triangle_expansion_count(loop, cx):
    # (a, b) -> (a, w, b), counted per step
    return sum(map(cx.third_counts.__getitem__, zip(loop, loop[1:])))


REFERENCE_SCANS = {
    "collapse": reference_collapses,
    "delete_backtrack": reference_backtrack_deletions,
    "contract_triangle": reference_triangle_contractions,
    "delete_triangle": reference_triangle_deletions,
    "insert_backtrack": H._backtrack_insertions,
    "expand_triangle": reference_triangle_expansion_count,
    "insert_triangle": H._triangle_insertions,
}


@cache
def reference_kinds_within(slack, insertions, stationary):
    """The kinds whose children keep a loop within a bound, in queue order
    (every kind when slack is None): de + 3 * ds <= 3 * (b - s) - e."""
    return tuple(kd for kd in H._KINDS
                 if (slack is None or kd.de + 3 * kd.ds <= slack)
                 and (insertions or kd.name not in PURE_INSERTIONS)
                 and (stationary or kd.name != "collapse"))


def assert_same_scan(loop, cx):
    """``_scan`` gives the per-kind scans' (kind, found) list, one call
    per kind, for both insertions values and every bound from -1 up to
    the largest child's, and None."""
    e, s = H._edge_stationary_counts(loop)
    every = {name: scan(loop, cx) for name, scan in REFERENCE_SCANS.items()}
    for insertions in (True, False):
        # insert_triangle's children (de = 3) have the largest lower bound
        for bound in (*range(-1, (e + 5) // 3 + s + 1), None):
            slack = None if bound is None else 3 * (bound - s) - e
            want = [(kind.name, every[kind.name]) for kind
                    in reference_kinds_within(slack, insertions, s > 0)
                    if every[kind.name]]
            got = [(kind.name, found) for kind, found
                   in H._scan(loop, cx, insertions, bound, e, s)]
            assert got == want, (loop, insertions, bound)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_matches_per_kind_scans_on_small_graphs(n):
    # as in the search test: ports only order insert_backtrack's children,
    # so the first numbering of each shape takes every walk of WALK_STEPS
    # steps and the others every walk of SHORT_WALK_STEPS
    shapes = set()
    for g in canonical_graphs(n):
        s = shape(g)
        steps = SHORT_WALK_STEPS if s in shapes else WALK_STEPS
        shapes.add(s)
        cx = clique_complex(g)
        for loop in all_closed_walks(g, steps):
            assert_same_scan(loop, cx)


@pytest.mark.parametrize("name", CATALOG_TERRAINS)
def test_scan_matches_per_kind_scans_on_surface_cycles(name):
    cx, cycles = catalog_sample(name)
    for cyc in cycles:
        assert_same_scan(cyc, cx)


# loop on k4: (contract_triangle's, delete_triangle's) positions
TRIANGLE_WINDOWS = {
    # a circuit that ends at the loop's last vertex; the last window,
    # (1, 2, 0), is a triangle path with nothing after it
    (0, 1, 2, 0): ([0, 1], [0]),
    (0, 2, 0, 1, 2, 0): ([1, 2, 3], [1, 2]),
    # stationary steps: no window is a triangle path
    (0, 1, 1, 0): ([], []),
    (0, 1, 0, 0): ([], []),
    # triangle paths not followed by their start
    (0, 1, 2, 3, 0): ([0, 1, 2], []),
    (0, 1, 2, 0, 3, 1, 0): ([0, 1, 2, 3, 4], [0, 3]),
}


@pytest.mark.parametrize("loop", sorted(TRIANGLE_WINDOWS), ids=str)
def test_triangle_deletions_are_triangle_paths_followed_by_their_start(
        k4, loop):
    cx = clique_complex(k4)
    e, s = H._edge_stationary_counts(loop)
    found = {kind.name: found
             for kind, found in H._scan(loop, cx, False, None, e, s)}
    assert (found.get("contract_triangle", []),
            found.get("delete_triangle", [])) == TRIANGLE_WINDOWS[loop]
    assert found.get("delete_triangle", []) \
        == reference_triangle_deletions(loop, cx)
    assert_same_scan(loop, cx)


@pytest.mark.parametrize("name", CATALOG_TERRAINS)
def test_moves_match_scanning_oracle_on_surface_cycles(name):
    cx, cycles = catalog_sample(name)
    for cyc in cycles:
        assert_same_moves(cyc, cx)


@pytest.mark.parametrize("name", CATALOG_TERRAINS)
def test_search_matches_rescanning_oracle_on_surface_cycles(moves, name):
    cx, cycles = catalog_sample(name)
    for cyc in cycles:
        assert_same_searches(moves, cyc, cx, CERTIFICATE_MOVES,
                             SAMPLE_BUDGETS)
        for k in SAMPLE_VERDICT_BOUNDS:
            assert_same_verdict(moves, cyc, cx, k, SAMPLE_BUDGETS)


def assert_cap_stops_earlier(loop, cx, k, caps):
    """For the exact and the greedy search, at every cap: where the oracle
    counting distinct loops raises, the search raises too, and where the
    search returns, it gives the oracle's uncapped result.

    A search runs the same under any cap until the cap stops it, so one
    that returns under a cap returns the same under every larger one, and
    so does the oracle.  Bisection finds the least cap the search returns
    under; the oracle must return there too, with the same result."""
    for greedy in (False, True):
        def search(cap):
            try:
                return H._search(loop, cx, k, Budgets(search_states=cap),
                                 True, greedy)
            except SearchBudgetExceeded:
                return None

        lo, hi = 0, len(caps)  # caps[:lo] raise, caps[hi:] return
        while lo < hi:
            mid = (lo + hi) // 2
            if search(caps[mid]) is None:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(caps):
            continue  # raises under every cap
        cap = caps[lo]
        try:
            want = rescanning_search(
                loop, cx, k, Budgets(search_states=cap), True,
                weight=8 if greedy else 1,
                insertions=not greedy and cx.dimension >= 2, distinct=True)
        except SearchBudgetExceeded:
            pytest.fail(f"{loop} at k={k}, cap {cap}, greedy={greedy}: "
                        f"returned where the distinct count raises")
        assert search(cap) == want, (loop, k, cap, greedy)


def test_cap_stops_searches_earlier_on_small_graphs():
    shapes = set()
    for g in all_canonical(4):
        if shape(g) in shapes:
            continue
        shapes.add(shape(g))
        cx = clique_complex(g)
        for loop in all_closed_walks(g, WALK_STEPS):
            assert_cap_stops_earlier(loop, cx, BOUND, SMALL_CAPS)


@pytest.mark.parametrize("name", ["rp2", "icosahedron"])
def test_cap_stops_searches_earlier_on_surface_cycles(name):
    cx, cycles = catalog_sample(name)
    for cyc in cycles:
        for k in (CERTIFICATE_MOVES, *SAMPLE_VERDICT_BOUNDS):
            assert_cap_stops_earlier(cyc, cx, k,
                                     [SAMPLE_BUDGETS.search_states])


def test_shared_certificate_moves(k4):
    cx = clique_complex(k4)
    a = H.contraction_certificate((0, 1, 2, 3, 0), cx, 4)
    b = H.contraction_certificate((0, 1, 2, 3, 0), cx, 4)
    assert a and a == b
    assert all(x[0] is y[0] for x, y in zip(a, b))


@pytest.mark.parametrize("k", sorted(EXACT_NEGATIVE_CALLS))
def test_exact_negative_work_is_frozen(moves, k):
    """An exact negative expands every state of its f <= k band, so its
    expansions (``_scan`` calls) are frozen: a change that stops pruning
    shows here."""
    _, open_ = rp2_lift_split()
    rp2x = clique_complex(graph("rp2"))
    assert run(moves, H.is_k_contractible, open_[0], rp2x, k,
               DEFAULT_BUDGETS) == (False, EXACT_NEGATIVE_CALLS[k])

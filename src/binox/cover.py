"""Universal covers by star completion, classification, isomorphism.

The development starts from one lifted copy of a base vertex and repeatedly
completes stars: every lifted vertex must acquire the full port range and
all neighbor-neighbor edges dictated by its base label.  Triangles may
force a missing port onto an ALREADY existing lifted vertex (if port p is
filled by a and the label has the neighbor-neighbor edge (p, q, pq, qp),
then port q must be a's port-pq neighbor), so those identifications are
resolved to a fixpoint before any fresh vertex is created; creating fresh
vertices first would split vertices the star bijection forces together and
fault on triangulated surfaces.

If the process closes it yields the universal cover (a simply connected
cover); if the lifted vertex count passes the budget the cover is infinite
or just too large, reported as a verdict rather than an error.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .complexes import clique_complex, coverings_agree, is_graph_covering
from .config import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceeded, CoverVerificationFailed, InconsistentStar
from .graphs import PortGraph, port_map

# beyond this many cover vertices the cycle-based audit switches to the
# development-idempotence certificate
_CYCLE_AUDIT_MAX_VERTICES = 8


@dataclass(frozen=True)
class CoverResult:
    status: str  # "finite" | "budget_exceeded"
    cover: PortGraph | None
    projection: dict[int, int] | None  # cover vertex -> base vertex
    sheets: int | None
    base: int
    explored: int  # lifted vertices materialized before stopping

    @property
    def finite(self) -> bool:
        return self.status == "finite"


def develop(label, neighbor, root, budget: int, same=operator.eq):
    """Star completion over a vertex source.  Returns (lift, ladj), or None
    when the lifted vertices, the root included, would outnumber the budget
    or a fresh vertex would pass the source's horizon.

    The source is two functions on its nodes: ``label(x)`` and
    ``neighbor(x, p)``, the node reached through port p (None past the
    horizon).  The nodes of a port graph are its vertices, compared
    exactly; a view's nodes are its interned ids, which ``same`` compares
    by label, since ids at different remaining depths are unrelated.
    lift[i] is the node under lifted vertex i; ladj[i] maps each port of
    i to a lifted neighbor.  Deterministic: lifted vertices are completed
    in creation order, ports in ascending order.
    """
    if budget < 1:
        return None
    lift: list = [root]
    ladj: list[dict[int, int]] = [dict()]
    i = 0
    while i < len(lift):
        v = lift[i]
        deg, back, nn = label(v)
        me = ladj[i]
        # identifications forced by triangles through existing neighbors
        changed = True
        while changed:
            changed = False
            for p, q, pq, qp in nn:
                for a_port, b_port, a_to_b in ((p, q, pq), (q, p, qp)):
                    if a_port in me and b_port not in me:
                        c = ladj[me[a_port]].get(a_to_b)
                        if c is None:
                            continue
                        want = neighbor(v, b_port)
                        if want is not None and not same(lift[c], want):
                            raise InconsistentStar(
                                f"lifted {i} over {v}: port {b_port} forced onto "
                                f"a vertex over {lift[c]}, expected over {want}"
                            )
                        if back[b_port] in ladj[c] and ladj[c][back[b_port]] != i:
                            raise InconsistentStar(
                                f"lifted {c} port {back[b_port]} already taken "
                                f"while completing lifted {i}"
                            )
                        me[b_port] = c
                        ladj[c][back[b_port]] = i
                        changed = True
        # fresh vertices for genuinely undetermined ports
        for p in range(deg):
            if p not in me:
                w = neighbor(v, p)
                if w is None or len(lift) >= budget:
                    return None
                j = len(lift)
                lift.append(w)
                ladj.append({back[p]: i})
                me[p] = j
        # neighbor-neighbor edges dictated by the label
        for p, q, pq, qp in nn:
            a, b = me[p], me[q]
            if pq in ladj[a]:
                if ladj[a][pq] != b:
                    raise InconsistentStar(
                        f"lifted {a} port {pq}: wanted {b}, has {ladj[a][pq]}"
                    )
            else:
                ladj[a][pq] = b
                ladj[b][qp] = a
        i += 1
    for idx, v in enumerate(lift):
        if len(ladj[idx]) != label(v)[0]:
            raise InconsistentStar(f"lifted {idx} over {v} left incomplete")
    return lift, ladj


def lifted_graph(lift: list, ladj: list[dict[int, int]], label) -> PortGraph:
    """The port graph of a closed development; back ports from the labels."""
    return PortGraph(len(lift), [
        (i, j, p, label(lift[i])[1][p])
        for i in range(len(lift)) for p, j in ladj[i].items() if i < j
    ])


def universal_cover(g: PortGraph, base: int = 0, verify: bool = True,
                    budgets: Budgets = DEFAULT_BUDGETS) -> CoverResult:
    """Develop the universal cover of g from ``base``.

    On "finite" the result carries the cover, the covering projection and
    the (integral) sheet count, and has passed an audit: the projection is
    a covering under both definitions, fibers have equal sizes, and the
    cover is simply connected.  On "budget_exceeded" only ``explored`` is
    meaningful.  ValueError when ``base`` is not a vertex of g.
    """
    if not 0 <= base < g.n:
        raise ValueError(f"base {base} out of range for a {g.n}-vertex graph")
    dev = develop(g.label, g.neighbor, base, budgets.cover_vertices)
    if dev is None:
        return CoverResult("budget_exceeded", None, None, None, base,
                           explored=budgets.cover_vertices)
    lift, ladj = dev
    n_cov = len(lift)
    cover = lifted_graph(lift, ladj, g.label)
    projection = {i: lift[i] for i in range(n_cov)}
    fiber_sizes = [lift.count(v) for v in g.vertices]
    if len(set(fiber_sizes)) != 1 or n_cov != fiber_sizes[0] * g.n:
        raise CoverVerificationFailed(
            f"unequal fiber sizes {sorted(set(fiber_sizes))} over {g.n} vertices"
        )
    result = CoverResult("finite", cover, projection, fiber_sizes[0], base,
                         explored=n_cov)
    if verify:
        _audit(result, g, budgets)
    return result


def _audit(result: CoverResult, g: PortGraph, budgets: Budgets) -> None:
    cover, projection = result.cover, result.projection
    assert cover is not None and projection is not None
    if not coverings_agree(projection, cover, g):
        raise CoverVerificationFailed(
            "development projection is not a covering"
        )
    if not _simply_connected(cover, budgets):
        raise CoverVerificationFailed("developed cover is not simply connected")


def _simply_connected(cover: PortGraph, budgets: Budgets) -> bool:
    """Certify simple connectivity of a developed cover.

    Small covers: every simple cycle contracts (bound 3 * length is always
    enough for a simply connected complex of these sizes, and a failure at
    that bound on a developed cover is a fault worth surfacing), each by
    ``contracts_within``: a greedy certificate first, exact A* only where
    it fails.  Larger covers, or a small one whose cycles or exact search
    pass a cap: development idempotence, i.e. re-developing the cover
    closes at its own size; a cover is its own universal cover exactly
    when it is simply connected.
    """
    if cover.n <= _CYCLE_AUDIT_MAX_VERTICES:
        from .homotopy import contracts_within, simple_cycles
        try:
            cycles = simple_cycles(cover)
            cx = clique_complex(cover)
            for cyc in cycles:
                bound = max(3 * (len(cyc) - 1), 8)
                if not contracts_within(cyc, cx, bound, budgets):
                    return False
            return True
        except BudgetExceeded:  # SearchBudgetExceeded included
            pass  # fall through to the idempotence certificate
    again = develop(cover.label, cover.neighbor, 0, cover.n + 1)
    return again is not None and len(again[0]) == cover.n


@dataclass(frozen=True)
class Classification:
    kind: str  # "simply_connected" | "finite_cover" | "exceeds_budget"
    sheets: int | None
    cover_size: int | None


def classify(g: PortGraph, budgets: Budgets = DEFAULT_BUDGETS) -> Classification:
    """Which of the three buckets does g's universal cover fall into?"""
    res = universal_cover(g, 0, verify=True, budgets=budgets)
    if not res.finite:
        return Classification("exceeds_budget", None, None)
    if res.sheets == 1:
        return Classification("simply_connected", 1, res.cover.n)
    return Classification("finite_cover", res.sheets, res.cover.n)


# -- port-preserving isomorphism ------------------------------------------------


def isomorphism(g1: PortGraph, g2: PortGraph) -> dict[int, int] | None:
    """A port-preserving isomorphism, or None.

    Port preservation pins the whole map once one vertex pair is fixed, so
    the search tries each image of vertex 0.
    """
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return None
    for b in g2.vertices:
        f = port_map(g1, 0, g2, b)
        if (f is not None and len(set(f.values())) == g1.n
                and is_graph_covering(f, g1, g2)):
            return f
    return None

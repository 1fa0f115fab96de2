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

import mmap
import operator
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass

from .complexes import coverings_agree, is_graph_covering
from .config import DEFAULT_BUDGETS, Budgets
from .errors import BudgetExceeded, CoverVerificationFailed, InconsistentStar
from .graphs import PortGraph, port_map
from .homotopy import all_simple_cycles_k_contractible

# beyond this many cover vertices the cycle-based audit switches to the
# development-idempotence certificate
_CYCLE_AUDIT_MAX_VERTICES = 8

_FIRST_SLOTS = 64  # first capacity of a development's buffers, in items
_MAPPED_BYTES = 1 << 18  # a buffer of this size or more is a memory map
_ITEMSIZE = {code: array(code).itemsize for code in "iq"}


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


def _slots(code: str, items: int, old=None):
    """A buffer of ``items`` items of array type ``code``, starting with a
    copy of ``old`` and zero past it (``develop`` reads 0 as unset): an
    array, or from _MAPPED_BYTES on a memoryview of an anonymous memory
    map.

    A map takes fresh pages, only the pages written become resident, and
    all of them go back to the system when its last view is dropped.  So a
    large development costs the same resident memory whatever earlier work
    left in the heap; buffers grown by realloc in the heap cost whatever
    holes the allocator happened to leave, which differs from run to run.
    """
    size = items * _ITEMSIZE[code]
    if size < _MAPPED_BYTES:
        buf = array(code, (0,)) * items
    else:
        buf = memoryview(mmap.mmap(-1, size)).cast(code)
    if old is not None:
        buf[:len(old)] = old
    return buf


def develop(label, neighbor, root, budget: int, same=operator.eq):
    """Star completion over a vertex source.  Returns (lift, off, ladj), or
    None when the lifted vertices, the root included, would outnumber the
    budget or a fresh vertex would pass the source's horizon.

    The source is two functions on its nodes: ``label(x)`` and
    ``neighbor(x, p)``, the node reached through port p (None past the
    horizon).  The nodes of a port graph are its vertices, compared
    exactly; a view's nodes are its interned ids, which ``same`` compares
    by label, since ids at different remaining depths are unrelated.
    Each distinct node's star (degree, back ports and neighbor-neighbor
    edges) is read once per development and shared by every lifted vertex
    over it.  So is its child record at each port, resolved the first
    time that port takes a fresh vertex: the index and degree of the
    neighbor's star and the back port, whose range is checked then.  The
    source's ``neighbor`` is called only there and for the check of each
    identification a triangle forces, so a port that a lifted vertex
    enters by, or that a neighbor-neighbor edge fills, is never asked.

    lift[i] is the node under lifted vertex i.  The ports of i are the flat
    slots ladj[off[i] : off[i + 1]] of an array, slot off[i] + p holding
    the lifted neighbor through port p; ``off`` is an array('q') of
    len(lift) + 1 offsets, and ``ladj`` an array('i') of 32-bit slots
    while the budget is below 2**31 and an array('q') from there on.  A
    port that would index outside its vertex's slots raises
    InconsistentStar.
    Deterministic: lifted vertices are completed in creation order, ports
    in ascending order.

    While it runs, the lift holds each node's index in the star table,
    and all three live in buffers (``_slots``) that double when full.  A
    slot holds the lifted neighbor plus one, and 0 while unset: the
    buffers start zero-filled, so a fresh vertex's slots need no writing.
    Slot values reach the budget, hence the typecode rule above.  A closed
    development is copied out into the types above, one subtracted from
    every slot.
    """
    if budget < 1:
        return None
    code = "i" if budget < 2**31 else "q"
    # node -> (deg, back, nn, child record at each port, its index k);
    # table[k] is the same star and nodes[k] its node
    stars: dict = {}
    table: list = []
    nodes: list = []

    def star(x):
        deg, back, nn = label(x)
        for p, q, _, _ in nn:  # own ports index the node's own slots
            if not (0 <= p < deg and 0 <= q < deg):
                raise InconsistentStar(f"node {x}: label ports out of range")
        s = stars[x] = (deg, back, nn, [None] * deg, len(table))
        table.append(s)
        nodes.append(x)
        return s

    def out_of_range(j, port, degree, i):
        return InconsistentStar(
            f"lifted {j} has no port {port} (degree {degree}) "
            f"while completing lifted {i}"
        )

    # n lifted vertices using `used` slots; lift holds `cap` items (at
    # most the budget) and ladj `room`
    n = 1
    used = star(root)[0]
    cap = min(budget, _FIRST_SLOTS)
    room = max(used, _FIRST_SLOTS)
    lift = _slots(code, cap)
    off = _slots("q", cap + 1)
    ladj = _slots(code, room)
    off[1] = used
    i = 0
    while i < n:
        v = lift[i]
        deg, back, nn, kids, _ = table[v]
        o = off[i]
        me = i + 1
        # identifications forced by triangles through existing neighbors;
        # a and c are slot values, lifted index plus one
        changed = bool(nn)
        while changed:
            changed = False
            for p, q, pq, qp in nn:
                for a_port, b_port, a_to_b in ((p, q, pq), (q, p, qp)):
                    a = ladj[o + a_port]
                    if not a or ladj[o + b_port]:
                        continue
                    oa = off[a - 1]
                    if not 0 <= a_to_b < off[a] - oa:
                        raise out_of_range(a - 1, a_to_b, off[a] - oa, i)
                    c = ladj[oa + a_to_b]
                    if not c:
                        continue
                    want = neighbor(nodes[v], b_port)
                    got = nodes[lift[c - 1]]
                    if want is not None and not same(got, want):
                        raise InconsistentStar(
                            f"lifted {i} over {nodes[v]}: port {b_port} "
                            f"forced onto a vertex over {got}, "
                            f"expected over {want}"
                        )
                    bp = back[b_port]
                    oc = off[c - 1]
                    if not 0 <= bp < off[c] - oc:
                        raise out_of_range(c - 1, bp, off[c] - oc, i)
                    slot = oc + bp
                    if ladj[slot] and ladj[slot] != me:
                        raise InconsistentStar(
                            f"lifted {c - 1} port {bp} already taken "
                            f"while completing lifted {i}"
                        )
                    ladj[o + b_port] = c
                    ladj[slot] = me
                    changed = True
        # fresh vertices for genuinely undetermined ports (of i's slots the
        # loop writes only port p's, after reading it)
        for p in range(deg):
            if ladj[o + p]:
                continue
            if n == cap:  # lift is full, or holds the budget
                if n >= budget:
                    return None
                cap = min(budget, 2 * n)
                lift = _slots(code, cap, lift)
                off = _slots("q", cap + 1, off)
            kid = kids[p]
            if kid is None:
                w = neighbor(nodes[v], p)
                if w is None:
                    return None
                s = stars.get(w) or star(w)
                bp = back[p]
                if not 0 <= bp < s[0]:
                    raise out_of_range(n, bp, s[0], i)
                kid = kids[p] = (s[4], s[0], bp)
            k, d, bp = kid
            base = used
            used += d
            if used > room:
                room = max(used, 2 * room)
                ladj = _slots(code, room, ladj)
            lift[n] = k
            ladj[base + bp] = me
            n += 1
            off[n] = used
            ladj[o + p] = n
        # neighbor-neighbor edges dictated by the label (every port of i
        # is set by now)
        for p, q, pq, qp in nn:
            a, b = ladj[o + p], ladj[o + q]
            oa, ob = off[a - 1], off[b - 1]
            if not 0 <= pq < off[a] - oa:
                raise out_of_range(a - 1, pq, off[a] - oa, i)
            if not 0 <= qp < off[b] - ob:
                raise out_of_range(b - 1, qp, off[b] - ob, i)
            sa, sb = oa + pq, ob + qp
            if ladj[sa]:
                if ladj[sa] != b:
                    raise InconsistentStar(
                        f"lifted {a - 1} port {pq}: wanted {b - 1}, "
                        f"has {ladj[sa] - 1}"
                    )
            elif ladj[sb] and ladj[sb] != a:
                raise InconsistentStar(
                    f"lifted {b - 1} port {qp}: wanted {a - 1}, "
                    f"has {ladj[sb] - 1}"
                )
            else:
                ladj[sa] = b
                ladj[sb] = a
        i += 1
    lifted = [nodes[k] for k in lift[:n]]
    offsets = array("q", off[:n + 1])
    ports = array(code, map((-1).__add__, ladj[:used]))  # unset: -1
    # every slot is set once its vertex is completed and the range checks
    # keep writes inside their vertex, so this is the closing invariant
    if -1 in ports:
        idx = bisect_right(offsets, ports.index(-1)) - 1
        raise InconsistentStar(
            f"lifted {idx} over {lifted[idx]} left incomplete")
    return lifted, offsets, ports


def lifted_graph(lift: list, off: array, ladj: array, label) -> PortGraph:
    """The port graph of a closed development; back ports from the labels."""
    edges = []
    for i, v in enumerate(lift):
        back = label(v)[1]
        o = off[i]
        for p in range(off[i + 1] - o):
            j = ladj[o + p]
            if i < j:
                edges.append((i, j, p, back[p]))
    return PortGraph(len(lift), edges)


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
    lift = dev[0]
    n_cov = len(lift)
    cover = lifted_graph(*dev, g.label)
    projection = dict(enumerate(lift))
    counts = Counter(lift)
    fiber_sizes = [counts[v] for v in g.vertices]
    if len(set(fiber_sizes)) != 1 or n_cov != fiber_sizes[0] * g.n:
        raise CoverVerificationFailed(
            f"unequal fiber sizes {sorted(set(fiber_sizes))} over {g.n} vertices"
        )
    result = CoverResult("finite", cover, projection, fiber_sizes[0], base,
                         explored=n_cov)
    if verify:
        _audit(result, g)
    return result


def _audit(result: CoverResult, g: PortGraph) -> None:
    cover, projection = result.cover, result.projection
    assert cover is not None and projection is not None
    if not coverings_agree(projection, cover, g):
        raise CoverVerificationFailed(
            "development projection is not a covering"
        )
    if not _simply_connected(cover):
        raise CoverVerificationFailed("developed cover is not simply connected")


def _simply_connected(cover: PortGraph) -> bool:
    """Certify simple connectivity of a developed cover.

    Small covers: the halting test at bound max(3n, 8), which is always
    enough for a simply connected complex of these sizes, so a failure on
    a developed cover is a fault worth surfacing.  Larger covers, or a
    small one whose cycles or exact search pass a cap: development
    idempotence, i.e. re-developing the cover closes at its own size; a
    cover is its own universal cover exactly when it is simply connected.
    """
    if cover.n <= _CYCLE_AUDIT_MAX_VERTICES:
        try:
            return all_simple_cycles_k_contractible(cover, max(3 * cover.n, 8))
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

"""Flat star completion against the dict-per-vertex development it replaced.

``dict_develop`` keeps the earlier ``cover.develop``: one dict per lifted
vertex mapping its ports to lifted neighbors, and ``label`` and
``neighbor`` read afresh for every lifted vertex.  The flat development
must give the same lift order, the same ports at every lifted vertex and
the same None on: every canonical port graph on at most 4 vertices from
every base at every budget up to one past its cover (200 where the cover
is infinite), every catalog terrain from every base, the view sources
``find_candidate`` develops, and grid3 at 10^4 lifted vertices.

Vertex sources whose labels contradict each other must raise
InconsistentStar, one source per check of the flat development; beside
each, the oracle's outcome is frozen, including where it misses the
contradiction or is corrupted by it."""

import mmap
import operator
import tracemalloc

import pytest

from binox import cover, enumeration
from binox.catalog import graph, names
from binox.cover import develop
from binox.errors import InconsistentStar
from binox.views import ViewInterner, fold_graph, view_key

from conftest import all_canonical

INFINITE_CAP = 200  # budgets tried where the cover never closes


def dict_develop(label, neighbor, root, budget, same=operator.eq):
    """``cover.develop`` with one dict of ports per lifted vertex."""
    if budget < 1:
        return None
    lift = [root]
    ladj = [dict()]
    i = 0
    while i < len(lift):
        v = lift[i]
        deg, back, nn = label(v)
        me = ladj[i]
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
                            raise InconsistentStar("forced onto the wrong node")
                        if back[b_port] in ladj[c] and ladj[c][back[b_port]] != i:
                            raise InconsistentStar("back port already taken")
                        me[b_port] = c
                        ladj[c][back[b_port]] = i
                        changed = True
        for p in range(deg):
            if p not in me:
                w = neighbor(v, p)
                if w is None or len(lift) >= budget:
                    return None
                j = len(lift)
                lift.append(w)
                ladj.append({back[p]: i})
                me[p] = j
        for p, q, pq, qp in nn:
            a, b = me[p], me[q]
            if pq in ladj[a]:
                if ladj[a][pq] != b:
                    raise InconsistentStar("neighbor edge wants another vertex")
            else:
                ladj[a][pq] = b
                ladj[b][qp] = a
        i += 1
    for idx, v in enumerate(lift):
        if len(ladj[idx]) != label(v)[0]:
            raise InconsistentStar("star left incomplete")
    return lift, ladj


def port_maps(lift, off, ladj):
    """The flat layout as one {port: lifted neighbor} dict per vertex."""
    return [{p: ladj[off[i] + p] for p in range(off[i + 1] - off[i])}
            for i in range(len(lift))]


def assert_agree(label, neighbor, root, budget, same=operator.eq):
    """Both developments of one source; returns the flat one."""
    new = develop(label, neighbor, root, budget, same)
    old = dict_develop(label, neighbor, root, budget, same)
    where = (root, budget)
    if old is None:
        assert new is None, where
        return new
    assert new is not None, where
    lift, off, ladj = new
    assert lift == old[0], where
    assert len(off) == len(lift) + 1 and off[-1] == len(ladj), where
    assert port_maps(lift, off, ladj) == old[1], where
    return new


# -- port graphs -----------------------------------------------------------------


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_canonical_graphs_at_every_budget(n):
    closed = infinite = 0
    for g in all_canonical(4):
        if g.n != n:
            continue
        for base in g.vertices:
            full = develop(g.label, g.neighbor, base, INFINITE_CAP)
            top = INFINITE_CAP if full is None else len(full[0]) + 1
            for budget in range(1, top + 1):
                assert_agree(g.label, g.neighbor, base, budget)
            if full is not None:  # a budget past 2**31 takes 64-bit slots
                assert full[2].typecode == "i"
                wide = assert_agree(g.label, g.neighbor, base, 2**31 + 1)
                assert wide[2].typecode == "q"
            closed += full is not None
            infinite += full is None
    assert closed and (n < 4 or infinite)


@pytest.mark.parametrize("name", names())
def test_catalog_terrains_from_every_base(name):
    g = graph(name)
    for base in g.vertices:
        assert_agree(g.label, g.neighbor, base, 500)


def test_grid3_at_ten_thousand():
    g = graph("grid3")
    assert assert_agree(g.label, g.neighbor, 0, 10**4) is None
    # the torus closes nowhere: a budget past 10^4 changes nothing
    assert assert_agree(g.label, g.neighbor, 4, 10**4 + 7) is None


def test_view_sources_of_find_candidate(monkeypatch):
    """Every development ``find_candidate`` runs on folded views of the
    small graphs (phases 1 to 5, both walks) and of the catalog terrains
    (phases up to one past their size), compared as it runs."""
    calls = []

    def both(label, neighbor, root, budget, same=operator.eq):
        calls.append(budget)
        return assert_agree(label, neighbor, root, budget, same)

    monkeypatch.setattr(enumeration, "develop", both)
    found = 0
    terrains = [(g, range(1, 6)) for g in all_canonical(4)]
    terrains += [(graph(name), range(1, graph(name).n + 2))
                 for name in names() if graph(name).n <= 12]
    for g, phases in terrains:
        for nb in (False, True):
            for v in sorted({0, g.n - 1}):
                for k in phases:
                    table = ViewInterner()
                    vk = view_key(table, fold_graph(g, v, 2 * k, table, nb),
                                  2 * k, nb)
                    found += enumeration.find_candidate(vk, k) is not None
    assert len(calls) > 1000 and found > 100


# -- inconsistent sources --------------------------------------------------------


def source(stars):
    """A vertex source from {node: (deg, back, nn, neighbors by port)}."""
    return (lambda x: stars[x][:3]), (lambda x, p: stars[x][3][p])


INCOMPLETE = "InconsistentStar: star left incomplete"

# R's port-0 neighbor A says its ports 0 and 2 lead to adjacent nodes
# joined by R's port 2; R's leaves B and C lead back through port 0
TRIANGLE = {
    "R": (3, (0, 0, 0), (), ("A", "B", "C")),
    "A": (3, (0, 0, 0), ((0, 2, 2, 0),), ("R", "B", "C")),
    "B": (1, (0,), (), ("R",)), "C": (1, (0,), (), ("R",)),
}

# case -> (source, what the flat development raises, the oracle's outcome:
# the error it raises, or what it returns)
INCONSISTENT = {
    # A's port 2 leads to D, but R's port 2 leads to C
    "forced onto the wrong node": (
        {**TRIANGLE,
         "A": (3, (0, 0, 0), ((0, 2, 2, 0),), ("R", "B", "D")),
         "D": (1, (0,), (), ("A",))},
        "port 2 forced onto a vertex over C, expected over D",
        "InconsistentStar: forced onto the wrong node"),
    # C's port 0 already leads back to R, not to A
    "back port already taken": (
        TRIANGLE, "lifted 3 port 0 already taken",
        "InconsistentStar: back port already taken"),
    # R says A and B are adjacent through A's port 0, which leads to R
    "neighbor edge wants another vertex": (
        {"R": (2, (0, 0), ((0, 1, 0, 0),), ("A", "B")),
         "A": (1, (0,), (), ("R",)), "B": (1, (0,), (), ("R",))},
        "lifted 1 port 0: wanted 2, has 0",
        "InconsistentStar: neighbor edge wants another vertex"),
    # R's port 0 lands on port 1 of A, which has one port
    "star left incomplete": (
        {"R": (1, (1,), (), ("A",)), "A": (1, (0,), (), ("R",))},
        "lifted 1 has no port 1", INCOMPLETE),
    # R's port 0 lands on port 2 of A, which has two: on this endless tree
    # the oracle runs out of budget with the extra ports unnoticed, and
    # the flat layout would write them into the next vertex's slots
    "back port out of range": (
        {"R": (2, (2, 0), (), ("A", "A")), "A": (2, (1, 0), (), ("R", "R"))},
        "lifted 1 has no port 2", None),
    # the triangle through R's port 3, which R lacks (in the flat layout,
    # the slot of A's port 0)
    "forced port out of range": (
        {**TRIANGLE, "A": (3, (0, 0, 0), ((0, 2, 3, 0),), ("R", "B", "C"))},
        "lifted 0 has no port 3", INCOMPLETE),
    # the triangle, C reached back through its port 5
    "forced back port out of range": (
        {**TRIANGLE, "A": (3, (0, 0, 5), ((0, 2, 2, 0),), ("R", "B", "C"))},
        "lifted 3 has no port 5", INCOMPLETE),
    # R says A and B are adjacent through A's port 1, which A lacks
    "neighbor edge port out of range": (
        {"R": (2, (0, 0), ((0, 1, 1, 0),), ("A", "B")),
         "A": (1, (0,), (), ("R",)), "B": (1, (0,), (), ("R",))},
        "lifted 1 has no port 1", INCOMPLETE),
    # R says A and B are adjacent through B's port 1, which B lacks
    "neighbor edge back port out of range": (
        {"R": (2, (1, 0), ((0, 1, 0, 1),), ("A", "B")),
         "A": (2, (0, 0), (), ("R", "R")), "B": (1, (0,), (), ("R",))},
        "lifted 2 has no port 1", INCOMPLETE),
    # R says A and B are adjacent through B's port 0, which leads to R;
    # the oracle overwrites it, so B's port 0 leads to A and R's port 1
    # to B
    "neighbor edge overwrites a port": (
        {"R": (2, (0, 0), ((0, 1, 1, 0),), ("A", "B")),
         "A": (2, (0, 0), (), ("R", "B")), "B": (1, (0,), (), ("R",))},
        "lifted 2 port 0: wanted 1, has 0",
        (["R", "A", "B"], [{0: 1, 1: 2}, {0: 0, 1: 2}, {0: 1}])),
    # R's port 0 lands on S's port 1, so the first lifted vertex over S
    # takes no fresh vertex there; the second, reached through T, does,
    # and S's port 1 lands on port 5 of R, which has one port (the oracle
    # gives that lift of R a port 5 and runs out of budget)
    "back port out of range at a second lift": (
        {"R": (1, (1,), (), ("S",)), "S": (2, (0, 5), (), ("T", "R")),
         "T": (2, (0, 0), (), ("S", "S"))},
        r"lifted 4 has no port 5 \(degree 1\) while completing lifted 3",
        None),
    # a neighbor-neighbor edge names a port past the node's degree
    "label port out of range": (
        {"R": (1, (0,), ((0, 1, 0, 0),), ("A",)), "A": (1, (0,), (), ("R",))},
        "node R: label ports out of range", "KeyError: 1"),
}


# R's port 1 leads to X, whose label names a port past its degree: a
# development that stops at R's port 1 never reads X's star
UNREAD = {"R": (2, (0, 0), (), ("A", "X")), "A": (1, (0,), (), ("R",)),
          "X": (1, (0,), ((0, 1, 0, 0),), ("R",))}


def outcome(label, neighbor):
    """The oracle's development from R, or the error it raises."""
    try:
        return dict_develop(label, neighbor, "R", 50)
    except (InconsistentStar, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("case", sorted(INCONSISTENT))
def test_inconsistent_sources_raise(case):
    stars, match, oracle = INCONSISTENT[case]
    label, neighbor = source(stars)
    with pytest.raises(InconsistentStar, match=match):
        develop(label, neighbor, "R", 50)
    assert outcome(label, neighbor) == oracle


@pytest.mark.parametrize("mapped", (False, True))
def test_budget_and_horizon_stop_before_an_unread_star(monkeypatch, mapped):
    """Running out of budget or horizon at a port returns None before the
    star beyond it is read, as the oracle does, with heap buffers and with
    every buffer a memory map grown from one item."""
    if mapped:
        monkeypatch.setattr(cover, "_MAPPED_BYTES", 1)
        monkeypatch.setattr(cover, "_FIRST_SLOTS", 1)
    label, neighbor = source(UNREAD)
    assert assert_agree(label, neighbor, "R", 2) is None  # budget
    with pytest.raises(InconsistentStar, match="node X: label ports"):
        develop(label, neighbor, "R", 3)
    label, neighbor = source({**UNREAD, "R": (2, (0, 0), (), (None, "X"))})
    assert assert_agree(label, neighbor, "R", 50) is None  # horizon


def test_slot_typecode_at_the_32_bit_boundary():
    """A slot holds a lifted index plus one, which reaches the budget, so
    32-bit slots last up to a budget of 2**31 - 1."""
    g = graph("k3")
    for budget, code in ((2**31 - 1, "i"), (2**31, "q")):
        lift, _, ladj = assert_agree(g.label, g.neighbor, 0, budget)
        assert (len(lift), ladj.typecode) == (3, code)


# -- memory ----------------------------------------------------------------------


def test_flat_development_memory_per_lifted_vertex(monkeypatch):
    """About 43.5 B per lifted vertex at the peak on grid3 (Python 3.11),
    the copy a full buffer doubles into included, with the ports in 32-bit
    slots and the lift in 32-bit star indices; zero-filled slots and one
    child record per star port left it where the -1-filled slots had it.
    Growth by realloc (a list lift, an array('i') of ports) took about 28,
    an array('q') of ports about 39, a list of ports about 86, and the
    dict per vertex before it about 286.  tracemalloc does not see memory maps, so every buffer is
    kept in the heap here."""
    monkeypatch.setattr(cover, "_MAPPED_BYTES", float("inf"))
    g = graph("grid3")
    for v in g.vertices:
        g.label(v)  # cached on the graph, not charged to the development
    budget = 10**5
    tracemalloc.start()
    try:
        assert develop(g.label, g.neighbor, 0, budget) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / budget <= 60


def test_mapped_buffers(monkeypatch):
    """Developments whose buffers are all memory maps, grown from one item
    on, agree with the oracle and raise as the heap buffers do."""
    monkeypatch.setattr(cover, "_MAPPED_BYTES", 1)
    monkeypatch.setattr(cover, "_FIRST_SLOTS", 1)
    assert isinstance(cover._slots("i", 1).obj, mmap.mmap)
    for name in names():
        g = graph(name)
        for base in g.vertices:
            assert_agree(g.label, g.neighbor, base, 500)
    g = graph("grid3")
    assert assert_agree(g.label, g.neighbor, 0, 10**4) is None
    for stars, match, _ in INCONSISTENT.values():
        with pytest.raises(InconsistentStar, match=match):
            develop(*source(stars), "R", 50)

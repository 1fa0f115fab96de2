"""Certificate-first contractibility against the exact-only paths it replaced.

``homotopy.contracts_within`` tries a greedy ``contraction_certificate``
before exact A*; the halting test calls it on every simple cycle, and the
cover audit runs the halting test at one bound for the whole cover.  The
references below keep their exact-only forms: every cycle through
``is_k_contractible``; the audit also keeps its earlier loop of its own,
a bound per cycle.  The new paths must give the same bool, or raise the
same exception type, on every canonical port graph on at most 4 vertices
and on the catalog, and every certificate they accept must replay move by
move to the trivial loop within its bound.

The fallback tests stub the greedy search out (it finds nothing, or passes
its cap) and check that exact A* still decides, and that its own budget
error still reaches the phase log.  The icosahedron tests freeze its
phase ends: no candidate at k = 12, the icosahedron itself at k = 13, and
a sample of its 12,878 cycles certified within 13 moves.
"""

import pytest

from binox import homotopy
from binox.catalog import ENTRIES, graph
from binox.complexes import clique_complex
from binox.config import DEFAULT_BUDGETS, Budgets
from binox.cover import (_CYCLE_AUDIT_MAX_VERTICES, _simply_connected,
                         develop, isomorphism, universal_cover)
from binox.enumeration import find_candidate
from binox.errors import BudgetExceeded, SearchBudgetExceeded
from binox.explorer import explore
from binox.homotopy import (all_simple_cycles_k_contractible,
                            contracts_within, is_k_contractible,
                            neighbor_moves, simple_cycles)
from binox.views import ViewInterner, fold_graph, view_key

from conftest import all_canonical

# catalog terrains where the exact-only halting test returns in Tier-1 time
# for every k from 0 to n + 2
HALTING_CATALOG = ("p2", "p3", "k3", "k4", "c4", "c5", "tree7",
                   "octahedron", "chordal6")

FINITE_ENTRIES = tuple(e.name for e in ENTRIES
                       if e.expected_kind != "exceeds_budget")

ICOSAHEDRON_HALT_PHASE = 13  # its first candidate, and it passes the test
ICOSAHEDRON_SAMPLE_STEP = 24  # every 24th cycle in simple_cycles order
# the first cycle whose certificate at k = 13 is the longest of all 12,878
# (100 cycles need 13 moves)
ICOSAHEDRON_LONGEST = ((0, 1, 6, 2, 3, 8, 9, 11, 7, 5, 4, 0), 13)


def exact_halting_test(g, k):
    """The halting test before certificates: exact A* on every cycle."""
    cx = clique_complex(g)
    return all(is_k_contractible(cyc, cx, k) for cyc in simple_cycles(g))


def reference_simply_connected(contracts, cover):
    """``cover._simply_connected`` as it was with its own cycle loop: each
    simple cycle must satisfy ``contracts`` at its own bound."""
    if cover.n <= _CYCLE_AUDIT_MAX_VERTICES:
        try:
            cycles = simple_cycles(cover)
            cx = clique_complex(cover)
            return all(contracts(cyc, cx, max(3 * (len(cyc) - 1), 8))
                       for cyc in cycles)
        except BudgetExceeded:
            pass
    again = develop(cover.label, cover.neighbor, 0, cover.n + 1)
    return again is not None and len(again[0]) == cover.n


def exact_simply_connected(cover):
    """The audit before certificates: exact A* on every cycle."""
    return reference_simply_connected(is_k_contractible, cover)


def per_cycle_simply_connected(cover):
    """The audit before it called the halting test."""
    return reference_simply_connected(contracts_within, cover)


def outcome(fn, *args):
    """A call's bool, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


@pytest.fixture
def certificates(monkeypatch):
    """Every (loop, complex, bound, result) of contraction_certificate
    while the test runs; the helper looks it up in the module."""
    seen = []
    original = homotopy.contraction_certificate

    def recording(loop, cx, k, budgets=DEFAULT_BUDGETS):
        cert = original(loop, cx, k, budgets)
        seen.append((loop, cx, k, cert))
        return cert

    monkeypatch.setattr(homotopy, "contraction_certificate", recording)
    return seen


def replay(loop, cx, k, cert):
    """Each step is a legal move of the loop before it, and the sequence
    ends at the trivial loop within k moves."""
    assert len(cert) <= k
    cur = loop
    for mv, nxt in cert:
        assert (mv, nxt) in neighbor_moves(cur, cx), (loop, mv)
        cur = nxt
    assert cur == (loop[0],)


def replay_all(seen):
    accepted = [(lp, cx, k, cert) for lp, cx, k, cert in seen
                if cert is not None]
    for lp, cx, k, cert in accepted:
        replay(lp, cx, k, cert)
    return len(accepted)


# -- differential: the halting test ---------------------------------------------


def test_halting_test_matches_exact_on_small_graphs(certificates):
    pairs = 0
    for g in all_canonical(4):
        for k in range(g.n + 3):
            assert (outcome(all_simple_cycles_k_contractible, g, k)
                    == outcome(exact_halting_test, g, k)), (g.encoding(), k)
            pairs += 1
    assert pairs == 860
    assert replay_all(certificates) > 0


@pytest.mark.parametrize("name", HALTING_CATALOG)
def test_halting_test_matches_exact_on_catalog(name, certificates):
    g = graph(name)
    for k in range(g.n + 3):
        assert (outcome(all_simple_cycles_k_contractible, g, k)
                == outcome(exact_halting_test, g, k)), k
    replay_all(certificates)


# -- differential: the cover audit -----------------------------------------------


def audit_inputs():
    """Developed covers of the finite catalog entries and of the canonical
    graphs on <= 4 vertices, plus those small graphs themselves, some of
    which are not simply connected."""
    out = []
    for name in FINITE_ENTRIES:
        out.append((name, universal_cover(graph(name), verify=False).cover))
    for i, g in enumerate(all_canonical(4)):
        res = universal_cover(g, verify=False)
        if res.finite:
            out.append((f"cover{i}", res.cover))
        out.append((f"graph{i}", g))
    return out


def every_base_covers():
    """The developed cover of every finite catalog entry from every base."""
    out = []
    for name in FINITE_ENTRIES:
        g = graph(name)
        for b in g.vertices:
            out.append((f"{name}@{b}", universal_cover(g, b, verify=False).cover))
    return out


def test_audit_matches_exact_reference(certificates):
    verdicts = set()
    for label, cover in audit_inputs() + every_base_covers():
        got = outcome(_simply_connected, cover)
        assert got == outcome(exact_simply_connected, cover), label
        assert got == outcome(per_cycle_simply_connected, cover), label
        verdicts.add(got)
    assert verdicts == {True, False}
    assert replay_all(certificates) > 0


# -- fallback to exact A* --------------------------------------------------------


def _no_certificate(loop, cx, k, budgets=DEFAULT_BUDGETS):
    return None


def _passes_cap(loop, cx, k, budgets=DEFAULT_BUDGETS):
    raise SearchBudgetExceeded("greedy search stub", what="search states",
                               cap=0, reached=1)


def _exact_capped_at_5(loop, cx, k, budgets=DEFAULT_BUDGETS):
    return is_k_contractible(loop, cx, k, Budgets(search_states=5))


@pytest.mark.parametrize("stub", [_no_certificate, _passes_cap],
                         ids=["none", "budget"])
@pytest.mark.parametrize("name", ["k3", "k4", "c4", "octahedron"])
def test_failed_certificate_falls_back_to_exact(name, stub, monkeypatch):
    g = graph(name)
    want = [outcome(exact_halting_test, g, k) for k in range(g.n + 3)]
    monkeypatch.setattr(homotopy, "contraction_certificate", stub)
    got = [outcome(all_simple_cycles_k_contractible, g, k)
           for k in range(g.n + 3)]
    assert got == want


def test_triangle_free_complex_never_tries_a_certificate(certificates):
    for name in ("p2", "p3", "tree7", "c4", "c5", "c6", "c8", "grid3"):
        g = graph(name)
        cx = clique_complex(g)
        assert cx.dimension < 2
        for cyc in simple_cycles(g):
            for k in (0, len(cyc), 3 * len(cyc)):
                assert (contracts_within(cyc, cx, k)
                        == is_k_contractible(cyc, cx, k))
        all_simple_cycles_k_contractible(g, g.n)
    _simply_connected(graph("c4"))
    assert certificates == []


def test_exact_budget_error_propagates_from_the_halting_test(monkeypatch):
    monkeypatch.setattr(homotopy, "contraction_certificate", _passes_cap)
    monkeypatch.setattr(homotopy, "is_k_contractible", _exact_capped_at_5)
    with pytest.raises(SearchBudgetExceeded) as info:
        all_simple_cycles_k_contractible(graph("octahedron"), 7)
    assert (info.value.what, info.value.cap) == ("search states", 5)


def test_exact_budget_error_is_a_phase_verdict(k3, monkeypatch):
    # k3 is the phase-4 candidate; with no certificate its one cycle goes
    # to exact A*, which passes a cap of 5 states
    monkeypatch.setattr(homotopy, "contraction_certificate", _no_certificate)
    monkeypatch.setattr(homotopy, "is_k_contractible", _exact_capped_at_5)
    out = explore(k3, move_budget=3000)
    assert out.status == "budget_exhausted"
    verdicts = {k: verdict for k, _, _, verdict in out.agent.phase_log}
    assert verdicts[4] == "test_budget_exceeded"
    assert out.candidate is None


# -- the icosahedron's phase end -------------------------------------------------


def icosahedron_candidate(k):
    """The exhaustive candidate at phase k from the icosahedron's
    non-backtracking view of depth 2k at vertex 0."""
    table = ViewInterner()
    ident = fold_graph(graph("icosahedron"), 0, 2 * k, table, True)
    return find_candidate(view_key(table, ident, 2 * k, True), k)


def test_icosahedron_first_candidate_is_at_phase_13():
    assert icosahedron_candidate(ICOSAHEDRON_HALT_PHASE - 1) is None
    cand = icosahedron_candidate(ICOSAHEDRON_HALT_PHASE)
    assert cand is not None and cand.graph.n == 12
    assert isomorphism(cand.graph, graph("icosahedron")) is not None


def test_icosahedron_cycles_certified_within_13(certificates, monkeypatch):
    # the full halting test at phase 13 certifies all 12,878 cycles (about
    # 13 s, a CI step); a fixed sample here, with exact A* ruled out
    k = ICOSAHEDRON_HALT_PHASE
    g = icosahedron_candidate(k).graph
    cx = clique_complex(g)
    cycles = simple_cycles(g)
    assert len(cycles) == 12878
    longest, longest_moves = ICOSAHEDRON_LONGEST
    sample = cycles[::ICOSAHEDRON_SAMPLE_STEP] + [longest]
    assert longest in cycles

    def no_exact(*args, **kwargs):
        raise AssertionError("exact A* reached")

    monkeypatch.setattr(homotopy, "is_k_contractible", no_exact)
    for cyc in sample:
        assert contracts_within(cyc, cx, k), cyc
    assert replay_all(certificates) == len(sample)
    assert max(len(cert) for *_, cert in certificates) == longest_moves
    assert len(certificates[-1][3]) == longest_moves

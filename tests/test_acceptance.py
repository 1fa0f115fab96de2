"""Acceptance gate: the eight end-to-end criteria, one test each.

Every test prints exactly one line

    criterion N: PASS - <what was established>

on success (visible with -s or -rA); the two expected-failure companions
document requirements that are out of computational reach and are marked
strict xfail with the honest reason.
"""

import time
from functools import lru_cache
from itertools import product

import pytest

from binox.catalog import ENTRIES, graph, vertex_map
from binox.complexes import (clique_complex, is_graph_covering,
                             is_simplicial_covering)
from binox.config import Budgets
from binox.cover import isomorphism, universal_cover
from binox.errors import NotSimplicial, SearchBudgetExceeded
from binox.explorer import explore, lift_check, reconstructed_projection
from binox.homotopy import (contraction_certificate, is_k_contractible,
                            min_contraction_moves, simple_cycles)

from conftest import (REVERSIBILITY_FAMILY, all_canonical, irreversible_moves,
                      rp2_lift_split)

# (terrain, halting phase, total moves); frozen from verified runs
FAITHFUL_RUNS = (
    ("p2", 3, 24),
    ("p3", 4, 156),
    ("k3", 4, 1344),
    ("k4", 5, 199272),
)

OCTAHEDRON_HINTED_MOVES = 21523328  # nonbacktracking walk, frozen

FINITE_ENTRIES = tuple(e.name for e in ENTRIES
                       if e.expected_kind != "exceeds_budget")

SC_SMALL = ("k1", "p2", "p3", "tree7", "k3", "k4", "chordal6",
            "octahedron", "icosahedron")  # simply connected, <= 12 vertices


@lru_cache(maxsize=None)
def faithful_run(name):
    t0 = time.monotonic()
    out = explore(graph(name), move_budget=10**7)
    return out, time.monotonic() - t0


@lru_cache(maxsize=None)
def certified_cycle_bound(name):
    """Certify every simple cycle of a catalog graph within 20 moves;
    return the worst certificate length (None only if some cycle failed)."""
    g = graph(name)
    cx = clique_complex(g)
    worst = 0
    for cyc in simple_cycles(g):
        cert = contraction_certificate(cyc, cx, 20)
        if cert is None:
            return None
        worst = max(worst, len(cert))
    return worst


def test_criterion_1_faithful_halting_runs():
    for name, phase, moves in FAITHFUL_RUNS:
        g = graph(name)
        out, elapsed = faithful_run(name)
        assert out.halted, name
        assert (out.halt_phase, out.moves) == (phase, moves), name
        assert out.moves <= 10**7 and elapsed < 60.0, name
        assert out.visited == frozenset(g.vertices), name
        h, root = out.candidate.graph, out.candidate.root
        f = reconstructed_projection(h, root, g, out.run.start)
        assert f is not None and is_graph_covering(f, h, g), name
        uc = universal_cover(g)
        assert isomorphism(h, uc.cover) is not None, name
    print("criterion 1: PASS - P2/P3/K3/K4 halt at phases 3/4/4/5 with "
          "24/156/1344/199272 moves, full visitation, reconstructed "
          "projections verified as coverings of terrains isomorphic to "
          "their universal covers")


def test_criterion_2_budget_exhaustion_on_infinite_covers():
    for name in ("c4", "c5", "grid3"):
        out = explore(graph(name), move_budget=10**6)
        assert out.status == "budget_exhausted", name
        assert not out.halted, name
        assert out.moves == 10**6, name
        assert out.halt_phase is None and out.candidate is None, name
    print("criterion 2: PASS - C4, C5, and the 3x3 grid exhaust the 10^6 "
          "move budget with zero halts")


def test_criterion_3_move_count_lower_bound():
    for name, _, _ in FAITHFUL_RUNS:
        out, _ = faithful_run(name)
        cover_size = universal_cover(graph(name)).cover.n
        assert out.moves >= cover_size, name
    octa = graph("octahedron")
    out = explore(octa, mode="hinted", hints=[octa], walk="nonbacktracking",
                  move_budget=3 * 10**7)
    assert out.halted and out.halt_phase == 7
    assert out.moves == OCTAHEDRON_HINTED_MOVES
    assert out.moves >= universal_cover(octa).cover.n
    f = reconstructed_projection(out.candidate.graph, out.candidate.root,
                                 octa, out.run.start)
    assert f is not None and is_graph_covering(f, out.candidate.graph, octa)
    rp2 = graph("rp2")
    out = explore(rp2, mode="hinted", hints=[rp2], walk="nonbacktracking",
                  move_budget=10**6)
    assert out.status == "budget_exhausted"
    assert out.moves >= 2 * rp2.n
    print("criterion 3: PASS - every halted run moved at least |V(cover)| "
          f"times; hinted octahedron used {OCTAHEDRON_HINTED_MOVES} >= 6; "
          "the projective plane run exceeded 2*11 moves without halting")


def test_criterion_4_trace_lifting():
    f, c8, c4 = vertex_map("c8_to_c4")
    rep = lift_check(c8, c4, f, move_budget=10**4)
    assert rep.ok
    assert rep.steps_compared >= 10**4
    assert rep.first_divergence is None
    f2, sphere, rp2 = vertex_map("rp2_cover_to_rp2")
    rep2 = lift_check(sphere, rp2, f2, move_budget=10**4)
    assert rep2.ok
    assert rep2.steps_compared >= 10**4
    assert rep2.first_divergence is None
    print("criterion 4: PASS - twin runs agree step for step (actions, "
          "memory digests, projected positions) for 10^4 steps on "
          "C8 over C4 and on the sphere over the projective plane")


@pytest.mark.xfail(
    strict=True,
    reason="no halting run on the projective plane is within reach: "
           "hinted with rp2 the agent takes rp2, whose open-lift cycles "
           "never contract; exhaustive, the development yields the "
           "22-vertex sphere only at k >= 23, whose simple cycles pass "
           "homotopy.CYCLE_BUDGET, so that verdict is "
           "test_budget_exceeded; the "
           "10^4-step budget-run equality above is the realizable check",
)
def test_criterion_4_full_halting_run_on_projective_plane():
    rp2 = graph("rp2")
    out = explore(rp2, mode="hinted", hints=[rp2], move_budget=10**6)
    assert out.halted


def test_criterion_5_covering_equivalence_sweep():
    graphs = all_canonical(4)
    complexes = [clique_complex(g) for g in graphs]
    checked = coverings = disagreements = 0
    t0 = time.monotonic()
    for a, ka in zip(graphs, complexes):
        for b, kb in zip(graphs, complexes):
            for images in product(range(b.n), repeat=a.n):
                f = dict(enumerate(images))
                gc = is_graph_covering(f, a, b)
                try:
                    sc = is_simplicial_covering(f, ka, kb)
                except NotSimplicial:
                    sc = False
                checked += 1
                coverings += gc
                disagreements += gc != sc
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert checked == 3681698
    assert coverings == 160
    assert elapsed <= 600.0
    print(f"criterion 5: PASS - {checked} vertex maps between all 124 "
          f"canonical pairs on <= 4 vertices, {coverings} coverings, zero "
          f"disagreements between the two definitions, {elapsed:.0f}s")


def test_criterion_6_universal_cover_soundness():
    for name in FINITE_ENTRIES:
        g = graph(name)
        res = universal_cover(g)
        assert res.finite, name
        assert res.cover.n == res.sheets * g.n, name
        assert is_simplicial_covering(res.projection,
                                      clique_complex(res.cover),
                                      clique_complex(g)), name
        if res.cover.n <= 12:
            worst = certified_cycle_bound(name)
            assert worst is not None, name
        again = universal_cover(res.cover)
        assert again.sheets == 1, name
        assert isomorphism(again.cover, res.cover) is not None, name
        base0 = universal_cover(g, 0)
        for b in list(g.vertices)[1:]:
            other = universal_cover(g, b)
            assert other.sheets == base0.sheets, name
            assert isomorphism(other.cover, base0.cover) is not None, name
    print(f"criterion 6: PASS - all {len(FINITE_ENTRIES)} finite catalog "
          "entries: projection is a simplicial covering, sheet counts "
          "integral, covers certified simply connected (cycle certificates "
          "up to 12 vertices, development idempotence beyond), development "
          "idempotent and basepoint independent")


def test_criterion_7_homotopy_kernel():
    for name in REVERSIBILITY_FAMILY:
        assert irreversible_moves(graph(name), 6) == [], name

    k4 = graph("k4")
    k4x = clique_complex(k4)
    for loop, expect_min in (((0, 1, 0), 1), ((0, 1, 2, 0), 1),
                             ((0, 1, 2, 3, 0), 2), ((0, 1, 0, 1, 0), 2)):
        m = min_contraction_moves(loop, k4x, 10)
        assert m == expect_min
        for k in range(m + 3):
            assert is_k_contractible(loop, k4x, k) == (k >= m)

    c4 = graph("c4")
    assert not is_k_contractible((0, 1, 2, 3, 0), clique_complex(c4), 20)

    for name in SC_SMALL:
        worst = certified_cycle_bound(name)
        assert worst is not None and worst <= 20, name

    closed, open_ = rp2_lift_split()
    assert (len(closed), len(open_)) == (8284, 5426)
    rp2x = clique_complex(graph("rp2"))
    worst = 0
    for cyc in closed:
        cert = contraction_certificate(cyc, rp2x, 20)
        assert cert is not None
        worst = max(worst, len(cert))
    assert worst <= 20
    small = Budgets(search_states=1000)
    for cyc in open_:
        try:
            assert contraction_certificate(cyc, rp2x, 20, small) is None
        except SearchBudgetExceeded:
            pass  # exhausted without a certificate: still no false positive
    for cyc in open_[:2]:
        assert not is_k_contractible(cyc, rp2x, 6)
    print("criterion 7: PASS - moves reversible on all closed walks of <= 6 "
          "steps over the seven <= 5-vertex family graphs; contractibility "
          "monotone in k; the square's 4-cycle fails at k=20; lift closure "
          "agrees with bounded contraction on every catalog complex of "
          "<= 12 vertices (8284 closed-lift cycles certified, worst "
          f"{worst} moves; 5426 open-lift cycles yield no certificate; "
          "shortest open cycles exactly non-contractible at k=6)")


@pytest.mark.xfail(
    strict=True,
    raises=SearchBudgetExceeded,
    reason="an exact negative at k=20 on an open-lift cycle needs an "
           "exhaustive search of the f <= 20 band, which passes the state "
           "cap; measured exact negatives stop being feasible past k=8",
)
def test_criterion_7_exact_negative_at_k20_on_open_lift_cycle():
    _, open_ = rp2_lift_split()
    assert not is_k_contractible(open_[0], clique_complex(graph("rp2")), 20)


def test_criterion_8_budget_verdicts_are_distinct():
    from binox.cli import main

    def porcelain(capsys_pairs):
        return dict(line.split("=", 1) for line in capsys_pairs.splitlines())

    import contextlib
    import io

    def run(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        assert code == 0
        return porcelain(buf.getvalue().strip())

    import pathlib
    cat = pathlib.Path(__file__).resolve().parent.parent / "catalog"

    halted = run("explore", str(cat / "p2.g"), "--porcelain")
    exhausted = run("explore", str(cat / "c4.g"), "--max-moves", "2000",
                    "--porcelain")
    assert {halted["status"], exhausted["status"]} \
        == {"halted", "budget_exhausted"}

    sc = run("classify", str(cat / "k3.g"), "--porcelain")
    over = run("classify", str(cat / "c4.g"), "--budget", "100", "--porcelain")
    finite = run("classify", str(cat / "rp2.g"), "--porcelain")
    assert len({sc["kind"], over["kind"], finite["kind"]}) == 3
    assert over["kind"] == "exceeds_budget"

    neg = run("contract", str(cat / "c4.g"), "--loop", "0,1,2,3,0",
              "--k", "20", "--porcelain")
    out_of_gas = run("contract", str(cat / "octahedron.g"), "--loop",
                     "0,1,3,4,0", "--k", "20", "--search-budget", "5",
                     "--porcelain")
    pos = run("contract", str(cat / "k3.g"), "--loop", "0,1,2,0", "--k", "3",
              "--porcelain")
    verdicts = {neg["verdict"], out_of_gas["verdict"], pos["verdict"]}
    assert verdicts == {"not_contractible", "search_budget_exceeded",
                        "contractible"}

    fin = run("ucover", str(cat / "p2.g"), "--porcelain")
    big = run("ucover", str(cat / "c4.g"), "--budget", "50", "--porcelain")
    assert fin["status"] == "finite" and big["status"] == "budget_exceeded"

    print("criterion 8: PASS - budget-exceeded verdicts carry their own "
          "statuses (budget_exhausted, exceeds_budget, "
          "search_budget_exceeded, budget_exceeded), never colliding with "
          "negative or positive verdicts")

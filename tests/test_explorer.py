"""The exploring agent, its harness, trace tooling, and trace lifting."""

import dataclasses
import hashlib
import re

import pytest

from binox import explorer, homotopy
from binox.catalog import graph, vertex_map
from binox.complexes import is_graph_covering
from binox.cover import isomorphism, universal_cover
from binox.enumeration import canonical_encoding
from binox.errors import InvalidMove, NotACovering
from binox.explorer import (PhasedAgent, agent_digest, explore, lift_check,
                            reconstructed_projection, run_agent)

from conftest import all_canonical, relabel, walk_ports

# (terrain, halting phase, total moves); frozen from verified runs
HALTING_RUNS = (
    ("k1", 2, 0),
    ("p2", 3, 24),
    ("p3", 4, 156),
    ("k3", 4, 1344),
    ("k4", 5, 199272),
    ("tree7", 8, 272896),  # candidate developed from the view, no hints
)


class Scripted:
    """Plays a fixed port sequence, then halts."""

    def __init__(self, ports):
        self.ports = list(ports)
        self.seen = []

    def act(self, obs):
        self.seen.append(obs)
        return self.ports.pop(0) if self.ports else None

    def digest(self):
        state = (tuple(self.ports), tuple(self.seen))
        return hashlib.sha256(repr(state).encode()).hexdigest()


# -- harness -----------------------------------------------------------------------


def test_immediate_halt(p2):
    run = run_agent(p2, Scripted([]), record=True)
    assert run.halted
    assert run.moves == 0
    assert run.final_position == 0
    assert [s.action for s in run.steps] == [None]


def test_scripted_round_trip(p2):
    run = run_agent(p2, Scripted([0, 0]), record=True)
    assert run.halted and run.moves == 2
    assert [s.position for s in run.steps] == [0, 1, 0]
    assert [s.entry for s in run.steps] == [None, 0, 0]
    assert run.visited == frozenset({0, 1})


def test_port_out_of_range_faults(p2, k3):
    with pytest.raises(InvalidMove):
        run_agent(p2, Scripted([5]))
    with pytest.raises(InvalidMove):
        run_agent(p2, Scripted(["0"]))
    with pytest.raises(InvalidMove):  # bool is an int subclass, not a port
        run_agent(k3, Scripted([True]))


def test_start_out_of_range_faults(p2):
    with pytest.raises(InvalidMove):
        run_agent(p2, Scripted([]), start=2)


@pytest.mark.parametrize("start", [True, False, 1.0, "0", None])
def test_start_that_is_not_an_int_faults(start):
    p3 = graph("p3")  # True would pass a range check as vertex 1
    with pytest.raises(InvalidMove, match="is not an int"):
        run_agent(p3, PhasedAgent(), start, 100)
    with pytest.raises(InvalidMove, match="is not an int"):
        explore(p3, start=start)
    f, src, dst = vertex_map("c8_to_c4")
    with pytest.raises(InvalidMove, match="cover start .* is not an int"):
        lift_check(src, dst, f, cover_start=start)


@pytest.mark.parametrize("budget", [-5, -1, 2.5, 3.0, float("inf"), True,
                                    False, "10", None])
def test_move_budget_must_be_an_int_at_least_zero(budget):
    p3 = graph("p3")
    with pytest.raises(ValueError, match="move budget"):
        run_agent(p3, PhasedAgent(), 0, budget)
    with pytest.raises(ValueError, match="move budget"):
        explore(p3, move_budget=budget)
    f, src, dst = vertex_map("c8_to_c4")
    with pytest.raises(ValueError, match="move budget"):
        lift_check(src, dst, f, move_budget=budget)


def test_zero_budget_reports_exhaustion(p2):
    run = run_agent(p2, Scripted([0, 0]), move_budget=0)
    assert not run.halted
    assert run.moves == 0


def test_record_levels(p2):
    assert run_agent(p2, Scripted([0])).steps == ()
    digs = run_agent(p2, Scripted([0]), record=True).steps
    assert len(digs) == 2
    assert all(re.fullmatch(r"[0-9a-f]{64}", s.digest) for s in digs)
    assert digs[1] == (1, 0, None, digs[1].digest)  # a plain tuple too
    assert re.fullmatch(r"[0-9a-f]{64}", agent_digest(Scripted([0, 1])))


def test_agent_config_validated():
    with pytest.raises(ValueError):
        PhasedAgent(walk="diagonal")
    with pytest.raises(ValueError):
        PhasedAgent(mode="psychic")


# -- full exploration ---------------------------------------------------------------


@pytest.mark.parametrize("name,phase,moves", HALTING_RUNS)
def test_exploration_halts_with_frozen_counts(name, phase, moves):
    g = graph(name)
    out = explore(g)
    assert out.halted
    assert out.status == "halted"
    assert (out.halt_phase, out.moves) == (phase, moves)
    assert out.visited == frozenset(g.vertices)
    assert out.phases_completed == phase
    assert out.candidate is not None
    assert out.candidate.graph.n < phase


def test_halted_candidate_matches_terrain_class(k3):
    out = explore(k3)
    assert canonical_encoding(out.candidate.graph) == canonical_encoding(k3)


def test_square_exhausts_budget(c4):
    out = explore(c4, move_budget=10**4)
    assert out.status == "budget_exhausted"
    assert not out.halted
    assert out.moves == 10**4
    assert out.halt_phase is None and out.candidate is None


def test_exploration_is_positionally_anonymous(k3):
    perm = (2, 0, 1)
    h = relabel(k3, perm)
    a = run_agent(k3, PhasedAgent(), 0, record=True)
    b = run_agent(h, PhasedAgent(), perm[0], record=True)
    assert a.halted
    assert [s.action for s in a.steps] == [s.action for s in b.steps]
    assert [s.entry for s in a.steps] == [s.entry for s in b.steps]
    assert [perm[s.position] for s in a.steps] \
        == [s.position for s in b.steps]


def test_memory_digests_deterministic(p2):
    a = run_agent(p2, PhasedAgent(), record=True)
    b = run_agent(p2, PhasedAgent(), record=True)
    assert [s.digest for s in a.steps] == [s.digest for s in b.steps]


def test_hinted_mode_changes_only_computation(k3):
    full = explore(k3)
    hinted = explore(k3, mode="hinted", hints=[k3])
    assert hinted.halted
    assert (hinted.halt_phase, hinted.moves) == (full.halt_phase, full.moves)


def test_hinted_mode_without_usable_hints_never_halts(k3):
    out = explore(k3, mode="hinted", hints=[], move_budget=3000)
    assert out.status == "budget_exhausted"


@pytest.mark.parametrize("walk", ["full", "nonbacktracking"])
def test_hints_leave_the_table_to_observations(walk):
    """A hint is compared with the view without entering the agent's
    table: a 4-vertex hint never matches p3's views, and the run ends with
    the table of a run given no hints."""
    def table(hints):
        out = explore(graph("p3"), mode="hinted", hints=hints,
                      move_budget=20000, walk=walk)
        assert out.status == "budget_exhausted"
        return [out.agent.table.key(i) for i in range(len(out.agent.table))]

    assert table([all_canonical(4)[7]]) == table(())


def test_halting_test_budget_is_a_distinct_phase_verdict(k3, monkeypatch):
    # k3 is the phase-4 candidate, and its one cycle passes a cap of 0
    monkeypatch.setattr(homotopy, "CYCLE_BUDGET", 0)
    out = explore(k3, mode="hinted", hints=[k3], move_budget=3000)
    assert out.status == "budget_exhausted"
    verdicts = {k: verdict for k, _, _, verdict in out.agent.phase_log}
    assert verdicts[4] == "test_budget_exceeded"
    assert out.candidate is None


def test_nonbacktracking_walk_same_verdict_fewer_moves(p2, k3):
    for g, phase, full_moves in ((p2, 3, 24), (k3, 4, 1344),
                                 (graph("tree7"), 8, 272896)):
        nb = explore(g, walk="nonbacktracking")
        assert nb.halted and nb.halt_phase == phase
        assert nb.moves < full_moves
        assert canonical_encoding(nb.candidate.graph) \
            == canonical_encoding(explore(g).candidate.graph)


def test_nonbacktracking_frozen_counts(p2, k3):
    assert explore(p2, walk="nonbacktracking").moves == 6
    assert explore(k3, walk="nonbacktracking").moves == 80
    assert explore(graph("tree7"), walk="nonbacktracking").moves == 94


def test_chordal6_halting_run():
    g = graph("chordal6")
    out = explore(g, move_budget=10**8, walk="nonbacktracking")
    assert (out.status, out.halt_phase, out.moves) \
        == ("halted", 7, 26636464)
    assert out.visited == frozenset(g.vertices)


def test_icosahedron_halting_run():
    """About 6 s on a 2-core VM, nearly all of it the phase-13 halting
    test over the candidate's 12,878 simple cycles; the walk is computed,
    not stepped."""
    g = graph("icosahedron")
    out = explore(g, move_budget=2 * 10**16, walk="nonbacktracking")
    assert (out.status, out.halt_phase, out.moves) \
        == ("halted", 13, 16012798675095050)
    assert out.phases_completed == 13
    assert out.visited == frozenset(g.vertices)
    assert isomorphism(out.candidate.graph,
                       universal_cover(g).cover) is not None


# -- reconstruction -----------------------------------------------------------------


def test_reconstructed_projection_on_halted_runs():
    for name, _, _ in HALTING_RUNS:
        g = graph(name)
        out = explore(g)
        h, root = out.candidate.graph, out.candidate.root
        f = reconstructed_projection(h, root, g, out.run.start)
        assert f is not None
        assert is_graph_covering(f, h, g), name


def test_reconstruction_is_walk_independent(k3):
    out = explore(k3)
    h, root = out.candidate.graph, out.candidate.root
    f = reconstructed_projection(h, root, k3, 0)
    # every port word from the root lands where the image walk lands
    words = [(p, q) for p in range(2) for q in range(2)]
    words += [(p, q, r) for p in range(2) for q in range(2) for r in range(2)]
    for w in words:
        assert f[walk_ports(h, root, w)] == walk_ports(k3, 0, w)


def test_reconstruction_fails_on_incompatible_shapes(c4, k3):
    assert reconstructed_projection(c4, 0, k3, 0) is None
    assert reconstructed_projection(k3, 0, c4, 0) is None


# -- lifting ------------------------------------------------------------------------


def test_identity_lift_agrees_through_halt():
    p3 = graph("p3")
    rep = lift_check(p3, p3, {v: v for v in p3.vertices}, move_budget=10**4)
    assert rep.ok
    assert rep.first_divergence is None
    assert rep.base_run.halted and rep.cover_run.halted
    assert rep.base_run.moves == 156


def test_identity_lift_agrees_under_budget(k4):
    f, src, dst = vertex_map("k4_identity")
    rep = lift_check(src, dst, f, move_budget=500)
    assert rep.ok
    assert not rep.base_run.halted and not rep.cover_run.halted


def test_cycle_lift_agrees_step_for_step():
    f, src, dst = vertex_map("c8_to_c4")
    rep = lift_check(src, dst, f, move_budget=2000)
    assert rep.ok
    assert rep.steps_compared == 2001  # final undone decision included
    assert rep.first_divergence is None
    assert first_divergence_by_steps(rep, f) is None
    assert rep.base_run.moves == rep.cover_run.moves == 2000
    for sb, sc in zip(rep.base_run.steps, rep.cover_run.steps):
        assert f[sc.position] == sb.position
        assert sb.digest == sc.digest


class Deviant(PhasedAgent):
    """A PhasedAgent that deviates once, at decision ``at``: "state"
    interns a key no terrain has, which changes its digest from there on;
    "action" takes the other port of a degree-2 vertex, which changes the
    action there and the positions after it, not that step's digest."""

    def __init__(self, at: int, kind: str, **kw):
        super().__init__(**kw)
        self.at, self.kind, self.calls = at, kind, 0

    def act(self, obs):
        action = super().act(obs)
        if self.calls == self.at:
            if self.kind == "state":
                self.table.intern(("no terrain's label", ()))
            else:
                action = 1 - action
        self.calls += 1
        return action


def first_divergence_by_steps(rep, f):
    """lift_check's divergence rule, one step at a time."""
    for i, (sb, sc) in enumerate(zip(rep.base_run.steps,
                                     rep.cover_run.steps)):
        if (sb.action != sc.action or sb.entry != sc.entry
                or sb.digest != sc.digest or f[sc.position] != sb.position):
            return i
    return None


@pytest.mark.parametrize("at", [0, 1, 777])
@pytest.mark.parametrize("kind", ["state", "action", "position", "entry"])
@pytest.mark.parametrize("twin", ["base", "cover"])
def test_lift_reports_the_first_divergence(monkeypatch, twin, kind, at):
    """One twin deviates at step ``at``: its agent (see Deviant), or, as
    no covering allows, its record there alone: the position moves to
    the next vertex, or the entry port becomes -1."""
    f, src, dst = vertex_map("c8_to_c4")
    deviant = ("base", "cover").index(twin)  # lift_check runs base first
    runs = []

    def twin_run(g, agent, *args, run_agent=explorer.run_agent, **kw):
        tamper = {"position": lambda s: s._replace(position=(s[0] + 1) % g.n),
                  "entry": lambda s: s._replace(entry=-1)}.get(kind)
        if len(runs) == deviant and tamper is None:
            agent = Deviant(at, kind, walk=agent.walk)
        run = run_agent(g, agent, *args, **kw)
        if len(runs) == deviant and tamper is not None:
            steps = list(run.steps)
            steps[at] = tamper(steps[at])
            run = dataclasses.replace(run, steps=tuple(steps))
        runs.append(run)
        return run

    monkeypatch.setattr(explorer, "run_agent", twin_run)
    rep = lift_check(src, dst, f, move_budget=2000)
    assert len(runs) == 2
    assert rep.ok is False
    assert rep.first_divergence == at
    assert rep.steps_compared == at
    assert first_divergence_by_steps(rep, f) == at
    sb, sc = rep.base_run.steps[at], rep.cover_run.steps[at]
    assert (sb.digest == sc.digest) == (kind != "state")


def test_lift_digests_through_the_module_names(monkeypatch):
    """Recording calls the module's ``agent_digest`` once per step, and
    ``lift_check`` calls the module's ``run_agent``: the divergence test
    above patches one, and the benchmark's trace counts the other."""
    calls = {"agent_digest": 0, "run_agent": 0}

    def counted(name):
        real = getattr(explorer, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        monkeypatch.setattr(explorer, name, wrapper)

    counted("agent_digest")
    counted("run_agent")
    f, src, dst = vertex_map("c8_to_c4")
    rep = lift_check(src, dst, f, move_budget=1000)
    assert rep.ok
    assert calls["run_agent"] == 2
    assert calls["agent_digest"] == len(rep.base_run.steps) + len(
        rep.cover_run.steps) == 2002
    assert all(type(s) is explorer.StepRecord for s in rep.base_run.steps)


def test_lift_requires_a_covering():
    f, src, dst = vertex_map("c6_to_k3")
    with pytest.raises(NotACovering):
        lift_check(src, dst, f)
    f, src, dst = vertex_map("c8_to_c4")
    del f[3]
    with pytest.raises(NotACovering, match="map undefined on vertex 3$"):
        lift_check(src, dst, f)
    f[3] = 7
    with pytest.raises(NotACovering,
                       match="image 7 of vertex 3 out of range$"):
        lift_check(src, dst, f)


def test_lift_respects_cover_start():
    f, src, dst = vertex_map("c8_to_c4")
    rep = lift_check(src, dst, f, cover_start=5, move_budget=500)
    assert rep.ok
    assert rep.base_run.start == f[5]

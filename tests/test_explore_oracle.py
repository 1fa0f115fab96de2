"""`explore` against the move loop whose result it computes.

``explore`` runs a ``PhasedAgent``'s decisions as ``run_agent`` does, but
folds each walk subtree whose round trip fits in the moves left instead
of descending into it, and charges the round trip.  ``run_agent`` steps
the agent move by move.  For every input and budget the two must agree on
status, moves, phases, halt phase, candidate, visited vertices, final
position, phase log (view ids included) and the agent's memory digest.

Budgets: -1, which both refuse with ValueError, 0, each phase end within
the cap and one move either side of it, a mid-phase value per phase, the
cap itself and, when the run halts within the cap, values past the halt.  Phase ends come from a literal run
that records them; a run with more than eight keeps its first six and its
last two.  Inputs: every canonical port graph on at most 4
vertices from every start and every catalog terrain from vertex 0, on both
walks in exhaustive mode, plus k3 and the octahedron in hinted mode with
themselves as the hint.  A hinted run on k1 without a usable hint never
returns, stepped or computed (every phase ends without a move), so it is
not an input.

Every budget: one recorded run of at most 600 moves gives, for each
budget b up to its end, the digest and position of decision b, the
vertices of decisions 0 to b, whether decision b is the halt, and b
moves; on every canonical port graph on at most 3 vertices and on k4, c4
and tree7 from vertex 0, on both walks.
"""

import pytest

from binox.catalog import graph, names
from binox.errors import InvalidMove
from binox.explorer import PhasedAgent, agent_digest, explore, run_agent

from conftest import all_canonical

CANONICAL_CAP = 400  # literal moves per run on the small graphs
CATALOG_CAP = 10**5  # literal moves per run on the catalog terrains
EVERY_BUDGET_CAP = 600  # recorded moves per run, one explore per budget
# phase ends kept on a long run (the cycles' non-backtracking walks end
# about 150 phases within the catalog cap)
KEPT_FIRST, KEPT_LAST = 6, 2
WALKS = ("full", "nonbacktracking")


class PhaseEnds(PhasedAgent):
    """PhasedAgent that records the move count at each phase end."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.acts = 0
        self.ends: list[int] = []

    def act(self, obs):
        self.acts += 1  # the i-th decision is made after i - 1 moves
        return super().act(obs)

    def _phase_end(self, ident):
        self.ends.append(self.acts - 1)
        return super()._phase_end(ident)


def budgets(g, start, cap, **config) -> list[int]:
    agent = PhaseEnds(**config)
    run = run_agent(g, agent, start, cap)
    ends = [0] + agent.ends
    out = {0, cap}
    for i in range(1, len(ends)):
        if i <= KEPT_FIRST or i > len(ends) - 1 - KEPT_LAST:
            end = ends[i]
            out |= {end - 1, end, end + 1, (ends[i - 1] + end) // 2}
    if run.halted:
        out |= {run.moves + 1, 3 * run.moves + 7}
    else:
        out.add((ends[-1] + cap) // 2)
    return sorted(b for b in out if b >= 0)  # a phase end at 0 moves


def encoding(candidate):
    return None if candidate is None else (candidate.graph.encoding(),
                                           candidate.root)


def assert_explore_is_literal(g, start, cap, **config):
    with pytest.raises(ValueError):
        run_agent(g, PhasedAgent(**config), start, -1)
    with pytest.raises(ValueError):
        explore(g, start, -1, **config)
    for budget in budgets(g, start, cap, **config):
        agent = PhasedAgent(**config)
        run = run_agent(g, agent, start, budget)
        want = ("halted" if run.halted else "budget_exhausted", run.moves,
                len(agent.phase_log),
                None if agent.accepted is None else agent.k,
                encoding(agent.accepted), run.visited, run.final_position,
                agent.phase_log, agent_digest(agent))
        out = explore(g, start, budget, **config)
        got = (out.status, out.moves, out.phases_completed, out.halt_phase,
               encoding(out.candidate), out.visited, out.run.final_position,
               out.agent.phase_log, agent_digest(out.agent))
        assert got == want, (g.encoding(), start, budget, config)


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_canonical_graphs_from_every_start(n, walk):
    for g in all_canonical(4):
        if g.n == n:
            for start in g.vertices:
                assert_explore_is_literal(g, start, CANONICAL_CAP, walk=walk)


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("name", names())
def test_catalog_terrains(name, walk):
    assert_explore_is_literal(graph(name), 0, CATALOG_CAP, walk=walk)


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("name", ("k3", "octahedron"))
def test_hinted_terrains(name, walk):
    g = graph(name)
    assert_explore_is_literal(g, 0, CATALOG_CAP, mode="hinted", hints=[g],
                              walk=walk)


@pytest.mark.parametrize("walk", WALKS)
def test_every_budget_against_one_recorded_run(walk):
    """One recorded run gives the outcome of every budget b up to its end:
    after b moves the agent makes decision b, which a budget of b leaves
    unexecuted, unless it is the halt."""
    terrains = list(all_canonical(3))
    terrains += [graph(name) for name in ("k4", "c4", "tree7")]
    for g in terrains:
        steps = run_agent(g, PhasedAgent(walk=walk), 0, EVERY_BUDGET_CAP,
                          record=True).steps
        visited = set()
        for b, step in enumerate(steps):
            visited.add(step.position)
            out = explore(g, 0, b, walk=walk)
            got = (out.halted, out.moves, out.run.final_position,
                   out.visited, agent_digest(out.agent))
            want = (step.action is None, b, step.position, visited,
                    step.digest)
            assert got == want, (g.encoding(), b, walk)


def test_budgets_cover_halts_and_stops_mid_phase():
    """The budget sets reach both outcomes and both kinds of stop: a
    pending descent and a pending ascent."""
    g = graph("p3")
    seen = set()
    for budget in budgets(g, 0, CANONICAL_CAP):
        out = explore(g, 0, budget)
        seen.add((out.status, out.agent._descend_port is None))
    assert seen == {("halted", True), ("budget_exhausted", True),
                    ("budget_exhausted", False)}


def test_bad_start_and_config_fault_as_in_run_agent(p2):
    with pytest.raises(InvalidMove, match="start vertex 2 out of range"):
        explore(p2, start=2)
    with pytest.raises(ValueError):
        explore(p2, walk="diagonal")

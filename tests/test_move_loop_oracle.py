"""The move loop against the one it replaced.

``OracleAgent`` keeps the agent's earlier per-move path: ``act`` hands over
to ``_decide``, which asks ``_next_port`` for each port of the top frame and
reads the degree from the frame's stored label.  ``oracle_run`` keeps the
earlier harness loop, which steps through ``PortGraph.label``, ``degree``,
``back_port`` and ``neighbor``.  The fused ``PhasedAgent.act`` under
``run_agent`` must agree with them move for move: equal step records
(positions, entries, actions and memory digests), equal unrecorded run
results, and equal phase logs (view ids included) and intern tables.

Inputs: every canonical port graph on at most 4 vertices from every start
and every catalog terrain from its first and last vertex; both walks, in
exhaustive mode and in hinted mode with the terrain as its only hint.
The move caps keep it to about half a minute.
"""

import pytest

from binox import explorer
from binox.catalog import graph, names
from binox.errors import InvalidMove, KernelFault
from binox.explorer import PhasedAgent, RunResult, StepRecord, run_agent

from conftest import all_canonical

RUN_MOVES = 1200    # move cap of the unrecorded runs
DIGEST_STEPS = 120  # move cap of the runs that record a digest per step
CONFIGS = tuple((mode, walk) for mode in ("exhaustive", "hinted")
                for walk in ("full", "nonbacktracking"))


class OracleAgent(PhasedAgent):
    """PhasedAgent with its earlier act/_decide/_next_port."""

    def act(self, obs):
        label, entry = obs
        if self.accepted is not None:
            return None
        if self._descend_port is not None:
            self.stack.append([self._descend_port, entry, label, [], 0])
            self._descend_port = None
        elif not self.stack:
            if self.k != 0:
                raise KernelFault("agent has no frame mid-run")
            self.k = 1
            self.stack.append([None, None, label, [], 0])
        elif self.stack[-1][2] != label:
            raise KernelFault("label changed under the agent while ascending")
        return self._decide()

    def _decide(self):
        while True:
            frame = self.stack[-1]
            if len(self.stack) - 1 < 2 * self.k:
                p = self._next_port(frame)
                if p is not None:
                    self._descend_port = p
                    return p
            ident = self.table.intern((frame[2], tuple(frame[3])))
            self.stack.pop()
            if self.stack:
                self.stack[-1][3].append((frame[0], frame[1], ident))
                return frame[1]
            if self._phase_end(ident):
                return None
            self.stack.append([None, None, frame[2], [], 0])

    def _next_port(self, frame):
        deg = frame[2][0]
        p = frame[4]
        while p < deg:
            frame[4] = p + 1
            if self.nb and frame[1] is not None and p == frame[1]:
                p = frame[4]
                continue
            return p
        return None


def oracle_run(g, agent, start, move_budget, record=False):
    """The earlier run_agent loop, through PortGraph's accessor methods."""
    pos, entry, moves = start, None, 0
    visited = {start}
    steps = []
    while True:
        action = agent.act((g.label(pos), entry))
        if record:
            steps.append(StepRecord(pos, entry, action,
                                    explorer.agent_digest(agent)))
        if action is None:
            return RunResult(True, moves, start, pos,
                             frozenset(visited), tuple(steps))
        deg = g.degree(pos)
        if not isinstance(action, int) or not 0 <= action < deg:
            raise InvalidMove(f"agent chose port {action!r} at a "
                              f"degree-{deg} vertex")
        if moves >= move_budget:
            return RunResult(False, moves, start, pos,
                             frozenset(visited), tuple(steps))
        entry = g.back_port(pos, action)
        pos = g.neighbor(pos, action)
        moves += 1
        visited.add(pos)


def assert_same_runs(g, start):
    for mode, walk in CONFIGS:
        hints = (g,) if mode == "hinted" else ()
        where = (g.encoding(), start, mode, walk)
        new = PhasedAgent(mode=mode, hints=hints, walk=walk)
        old = OracleAgent(mode=mode, hints=hints, walk=walk)
        got = run_agent(g, new, start, DIGEST_STEPS, record=True)
        want = oracle_run(g, old, start, DIGEST_STEPS, record=True)
        assert got.steps == want.steps, where
        assert got == want, where

        new = PhasedAgent(mode=mode, hints=hints, walk=walk)
        old = OracleAgent(mode=mode, hints=hints, walk=walk)
        got = run_agent(g, new, start, RUN_MOVES)
        want = oracle_run(g, old, start, RUN_MOVES)
        assert got == want, where
        assert new.phase_log == old.phase_log, where
        assert new.table.digest() == old.table.digest(), where
        assert explorer.agent_digest(new) == explorer.agent_digest(old), where


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_canonical_graphs_from_every_start(n):
    for g in all_canonical(4):
        if g.n == n:
            for start in g.vertices:
                assert_same_runs(g, start)


@pytest.mark.parametrize("name", names())
def test_catalog_terrains(name):
    g = graph(name)
    for start in sorted({0, g.n - 1}):
        assert_same_runs(g, start)


def test_caps_leave_room_for_phase_ends():
    """Within the caps, runs halt, end phases that reject a candidate and
    stop at the budget mid-phase."""
    def run(name, walk, **kw):
        agent = PhasedAgent(walk=walk, **kw)
        out = run_agent(graph(name), agent, 0, RUN_MOVES)
        return out.halted, [verdict for *_, verdict in agent.phase_log]

    assert run("k3", "nonbacktracking") == (True, [None] * 3 + ["contractible"])
    assert run("k3", "full") == (False, [None] * 3)
    # the exhaustive search finds no candidate for c4 (its universal cover
    # is infinite); its hint is rejected at every phase from 5 on
    halted, verdicts = run("c4", "nonbacktracking")
    assert not halted and set(verdicts) == {None}
    halted, verdicts = run("c4", "nonbacktracking", mode="hinted",
                           hints=[graph("c4")])
    assert not halted and verdicts.count("not_contractible") >= 10

"""Memory digests: the compact snapshot against a full-rendering oracle.

``agent_digest`` hashes ``PhasedAgent.snapshot()``, which carries hashes of
the agent's large parts (intern table, frame stack, configuration) instead
of the parts themselves.  The oracle below is the digest as it was defined
before that: sha256 over the repr of the complete state.  Both must induce
the same equality relation on agent states, step for step.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from binox.catalog import graph, vertex_map
from binox.cover import universal_cover
from binox.explorer import PhasedAgent, agent_digest, explore, run_agent


def full_repr_digest(agent: PhasedAgent) -> str:
    """Reference digest: sha256 over the repr of the agent's whole state."""
    acc = None
    if agent.accepted is not None:
        acc = (agent.accepted.graph.encoding(), agent.accepted.root)
    state = (
        agent.k,
        agent.mode,
        agent.walk,
        tuple(h.encoding() for h in agent.hints),
        tuple((f[0], f[1], f[2], tuple(f[3]), f[4]) for f in agent.stack),
        agent._descend_port,
        tuple(agent.table.key(i) for i in range(len(agent.table))),
        tuple(agent.phase_log),
        acc,
    )
    return hashlib.sha256(repr(state).encode()).hexdigest()


class Recorder:
    """Drives a PhasedAgent and records both digests after every step."""

    def __init__(self, agent: PhasedAgent):
        self.agent = agent
        self.old: list[str] = []
        self.new: list[str] = []

    def act(self, obs):
        action = self.agent.act(obs)
        self.old.append(full_repr_digest(self.agent))
        self.new.append(agent_digest(self.agent))
        return action


def record(g, start, steps, **agent_kw) -> Recorder:
    rec = Recorder(PhasedAgent(**agent_kw))
    run_agent(g, rec, start, steps)
    return rec


def equalities(a: Recorder, b: Recorder) -> list[bool]:
    """Per-step old-digest equality; asserts new-digest equality matches."""
    assert len(a.old) == len(b.old)
    old = [x == y for x, y in zip(a.old, b.old)]
    new = [x == y for x, y in zip(a.new, b.new)]
    assert new == old
    return old


def test_lift_twins_agree_under_both_digests():
    f8, c8, c4 = vertex_map("c8_to_c4")
    rp2 = graph("rp2")
    res = universal_cover(rp2)
    for cover, base, f in ((c8, c4, f8), (res.cover, rp2, res.projection)):
        a = record(base, f[0], 3000)
        b = record(cover, 0, 3000)
        assert len(a.old) == 3001
        assert all(equalities(a, b))


def test_c4_and_c5_agree_through_candidate_phase_ends():
    # hinted: exhaustive search develops the cycles' infinite cover, so it
    # finds no candidate; the hint c4 matches both from phase 5 on
    c4 = graph("c4")
    kw = dict(walk="nonbacktracking", mode="hinted", hints=[c4])
    a = record(c4, 0, 600, **kw)
    b = record(graph("c5"), 0, 600, **kw)
    assert all(equalities(a, b))
    assert sum(cand is not None for _, _, cand, _ in a.agent.phase_log) >= 3


def test_tree7_from_two_leaves_differs_from_step_one():
    t = graph("tree7")
    eq = equalities(record(t, 2, 500), record(t, 5, 500))
    assert eq[0] and not any(eq[1:])


def test_k3_and_c4_differ_at_step_zero():
    eq = equalities(record(graph("k3"), 0, 500), record(graph("c4"), 0, 500))
    assert not any(eq)


def test_hints_enter_the_digest():
    oct_, k4 = graph("octahedron"), graph("k4")
    kw = dict(mode="hinted", walk="nonbacktracking")
    a = record(oct_, 0, 2000, hints=[oct_], **kw)
    b = record(oct_, 0, 2000, hints=[oct_], **kw)
    c = record(oct_, 0, 2000, hints=[oct_, k4], **kw)
    assert all(equalities(a, b))
    assert not any(equalities(a, c))


@pytest.mark.parametrize("name,steps", [("k3", 1400), ("rp2", 3000)])
def test_digest_is_independent_of_when_it_was_taken(name, steps):
    """One digest after an unrecorded run equals the last of a recorded
    one: the incremental caches never change the value."""
    g = graph(name)
    recorded = run_agent(g, PhasedAgent(), 0, steps, record=True)
    agent = PhasedAgent()
    run_agent(g, agent, 0, steps)
    assert agent_digest(agent) == recorded.steps[-1].digest


def test_exploring_never_loads_hashlib():
    """hashlib (and OpenSSL behind it) is imported by the first digest,
    not by ``import binox``: explore, cover and contract never hash."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    code = ("import sys, binox\n"
            "from binox.catalog import graph\n"
            "out = binox.explore(graph('k4'))\n"
            "print('hashlib' in sys.modules)\n"
            "print(binox.agent_digest(out.agent))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, digest = proc.stdout.split()
    assert loaded == "False"
    assert digest == agent_digest(explore(graph("k4")).agent)

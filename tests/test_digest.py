"""Memory digests: the compact snapshot against a full-rendering oracle.

``agent_digest`` hashes ``PhasedAgent.snapshot()``, which carries hashes of
the agent's large parts instead of the parts themselves: the frame stack as
a per-depth hash chain whose links are kept from one digest to the next,
and the intern table, phase log, accepted candidate and configuration as
one value cached while the table and the log keep their lengths.  The
oracle below is the digest as it was defined before that: sha256 over the
repr of the complete state.  Both must induce the same equality relation
on agent states: step for step, across whole families of runs, whenever
the digest is taken, and on hand-built states that a naive concatenation
of fields would confuse.
"""

import hashlib
import os
import random
import struct
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

from binox.catalog import graph, names, vertex_map
from binox.cover import universal_cover
from binox.explorer import PhasedAgent, agent_digest, explore, run_agent

from conftest import all_canonical


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


def test_digests_biject_with_the_oracle():
    """Across every recorded state of many runs, oracle digest and digest
    determine each other: equal states give equal digests, unequal states
    unequal ones, including states reached on different graphs."""
    runs = [(g, v, 300) for g in all_canonical(4) for v in g.vertices]
    runs += [(graph(name), 0, 2000) for name in names()]
    new_of: dict[bytes, bytes] = {}  # oracle digest -> digest
    old_of: dict[bytes, bytes] = {}  # digest -> oracle digest
    for walk in ("full", "nonbacktracking"):
        for g, start, steps in runs:
            rec = record(g, start, steps, walk=walk)
            for old, new in zip(rec.old, rec.new):
                old, new = bytes.fromhex(old), bytes.fromhex(new)
                assert new_of.setdefault(old, new) == new
                assert old_of.setdefault(new, old) == old
    assert len(new_of) == len(old_of) > 250_000


class Sampler:
    """Drives a PhasedAgent and digests it after seeded irregular gaps.

    It counts deep returns, gaps after which the stack is deeper than at
    the previous digest but has lost at least two of that digest's frames
    (the scan must pass below the previous top), and phase ends, gaps
    after which the root frame is new.
    """

    def __init__(self, seed: int, **agent_kw):
        self.agent = PhasedAgent(**agent_kw)
        self.rng = random.Random(seed)
        self.step, self.due = -1, 0
        self.digests: dict[int, str] = {}
        self.frames: list = []  # the stack at the previous digest
        self.deep_returns = self.phase_ends = 0

    def act(self, obs):
        action = self.agent.act(obs)
        self.step += 1
        if self.step == self.due:
            stack, prev = self.agent.stack, self.frames
            kept = 0
            while (kept < min(len(prev), len(stack))
                   and prev[kept] is stack[kept]):
                kept += 1
            self.deep_returns += kept < len(prev) - 1 < len(stack) - 1
            self.phase_ends += bool(prev) and kept == 0
            self.digests[self.step] = agent_digest(self.agent)
            self.frames = list(stack)
            self.due += self.rng.randint(1, self.rng.choice((2, 6, 20, 80)))
        return action


@pytest.mark.parametrize("walk", ["full", "nonbacktracking"])
@pytest.mark.parametrize("name", ["k4", "tree7", "c4", "rp2"])
def test_digests_at_irregular_gaps_equal_every_step_digests(name, walk):
    """The cached chain is rescanned from the top of the stack: digests
    taken after gaps that replace cached frames below the previous top,
    the root included, must equal those of a run digesting every step."""
    g = graph(name)
    every = run_agent(g, PhasedAgent(walk=walk), 0, 3000, record=True)
    deep_returns = phase_ends = 0
    for seed in range(8):
        sampler = Sampler(seed, walk=walk)
        run_agent(g, sampler, 0, 3000)
        for step, digest in sampler.digests.items():
            assert digest == every.steps[step].digest, (seed, step)
        deep_returns += sampler.deep_returns
        phase_ends += sampler.phase_ends
    assert deep_returns >= 1
    assert phase_ends >= 1


LABEL = graph("k3").label(0)


def hand_built(*frames) -> PhasedAgent:
    """A phase-1 agent with the given (via, entry, children, next port)
    frames on its stack, all with one label, and nothing else."""
    agent = PhasedAgent()
    agent.k = 1
    agent.stack = [[via, entry, LABEL, list(children), next_port]
                   for via, entry, children, next_port in frames]
    return agent


def naive(agent: PhasedAgent, render) -> bytes:
    """The stack's fields in one stream, labels left out, each rendered
    alone: no separators, counts or lengths."""
    fields = []
    for via, entry, _, children, next_port in agent.stack:
        fields += [via, entry, *chain.from_iterable(children), next_port]
    return b"".join(map(render, fields))


def decimal(x) -> bytes:
    return str(x).encode()


def fixed64(x) -> bytes:
    return struct.pack("<q", -1 if x is None else x)


def none_as_zero(x) -> bytes:
    return struct.pack("<q", x or 0)


def fixed32(x) -> bytes:
    return struct.pack("<I", (-1 if x is None else x) % 2**32)


@pytest.mark.parametrize("a,b,render", [
    # one extra child versus a different next port
    ([(None, None, [(1, 0, 2)], 3)], [(None, None, [], 1023)], decimal),
    # a frame boundary moved: the child belongs to the frame below or above
    ([(None, None, [(1, 0, 2)], 3), (4, 0, [], 1)],
     [(None, None, [], 1), (0, 2, [(3, 4, 0)], 1)], fixed64),
    # the root's via and entry are None, not port 0
    ([(None, None, [], 0)], [(0, 0, [], 0)], none_as_zero),
    # interned ids above 2**31 that agree in their low 32 bits
    ([(None, None, [(0, 1, 2**31 + 7)], 1)],
     [(None, None, [(0, 1, 2**32 + 2**31 + 7)], 1)], fixed32),
], ids=["extra_child", "frame_boundary", "root_none", "ids_past_2_31"])
def test_states_a_naive_concatenation_confuses_get_distinct_digests(
        a, b, render):
    assert naive(hand_built(*a), render) == naive(hand_built(*b), render)
    assert agent_digest(hand_built(*a)) != agent_digest(hand_built(*b))
    assert full_repr_digest(hand_built(*a)) != full_repr_digest(hand_built(*b))
    assert agent_digest(hand_built(*a)) == agent_digest(hand_built(*a))


def test_ids_past_64_bits_raise_instead_of_colliding():
    with pytest.raises(struct.error):
        agent_digest(hand_built((None, None, [(0, 1, 2**63)], 1)))


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

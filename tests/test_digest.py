"""Memory digests: the cached digest against a full-rendering oracle.

``agent_digest`` returns ``PhasedAgent.digest()``, which hashes the
agent's large parts once and keeps the hashes: the frame stack as a
per-depth hash chain whose entries are kept from one digest to the next,
closed at the top frame with its next port, k, the pending descent port
and one hash over the intern table, phase log, accepted candidate and
configuration, cached while the table and the log keep their lengths.  The
oracle below is the digest as it was defined before that: sha256 over the
repr of the complete state.  Both must induce the same equality relation
on agent states: step for step, across whole families of runs, whenever
the digest is taken, and on hand-built states that a naive concatenation
of fields would confuse.

``ParentDigest`` is the chain digest before its per-step costs were cut,
kept as a reference for byte-identical values: the digest must not change
when only its speed does.  One frozen literal, over a whole lift twin's
digest stream, catches a change to digest values that both would share.
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


def state_repr(agent: PhasedAgent, key_reprs: list[str] | None = None) -> str:
    """repr of the agent's whole state.

    The intern table enters as the tuple of its keys.  Given ``key_reprs``,
    a list this call extends to the reprs of all of the table's keys (keys
    are immutable and the table is append-only, so a list kept across
    calls stays valid), the same string is joined from those reprs instead
    of rendering the whole table again.
    """
    table = agent.table
    acc = None
    if agent.accepted is not None:
        acc = (agent.accepted.graph.encoding(), agent.accepted.root)
    state = [
        agent.k,
        agent.mode,
        agent.walk,
        tuple(h.encoding() for h in agent.hints),
        tuple((f[0], f[1], f[2], tuple(f[3]), f[4]) for f in agent.stack),
        agent._descend_port,
        None,  # the table's keys
        tuple(agent.phase_log),
        acc,
    ]
    if key_reprs is None:
        state[6] = tuple(table.key(i) for i in range(len(table)))
        return repr(tuple(state))
    key_reprs.extend(repr(table.key(i))
                     for i in range(len(key_reprs), len(table)))
    fields = [repr(x) for x in state]
    fields[6] = tuple_repr(key_reprs)
    return tuple_repr(fields)


def tuple_repr(item_reprs: list[str]) -> str:
    """repr of a tuple, given the reprs of its items."""
    if len(item_reprs) == 1:
        return f"({item_reprs[0]},)"
    return "(" + ", ".join(item_reprs) + ")"


def full_repr_digest(agent: PhasedAgent,
                     key_reprs: list[str] | None = None) -> str:
    """Reference digest: sha256 over the repr of the agent's whole state."""
    return hashlib.sha256(state_repr(agent, key_reprs).encode()).hexdigest()


class Recorder:
    """Drives a PhasedAgent and records both digests after every step."""

    def __init__(self, agent: PhasedAgent):
        self.agent = agent
        self.key_reprs: list[str] = []
        self.old: list[str] = []
        self.new: list[str] = []

    def act(self, obs):
        action = self.agent.act(obs)
        self.old.append(full_repr_digest(self.agent, self.key_reprs))
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


class ReprChecker:
    """Drives a PhasedAgent and checks after every step that the cached
    rendering of its state is the plain one, byte for byte."""

    def __init__(self, **agent_kw):
        self.agent = PhasedAgent(**agent_kw)
        self.key_reprs: list[str] = []
        self.halted = self.candidates = self.one_key = 0

    def act(self, obs):
        action = self.agent.act(obs)
        cached = state_repr(self.agent, self.key_reprs).encode()
        assert cached == state_repr(self.agent).encode()
        self.halted += self.agent.accepted is not None
        self.candidates += any(cand is not None
                               for _, _, cand, _ in self.agent.phase_log)
        self.one_key += len(self.agent.table) == 1
        return action


@pytest.mark.parametrize("walk", ["full", "nonbacktracking"])
def test_cached_key_reprs_give_the_oracle_bytes(walk):
    """A slice of the bijection test's runs, plus runs through a halt and
    through candidate phase ends."""
    c4 = graph("c4")
    runs = [(g, 0, 300, {}) for g in all_canonical(4)[::10]]
    runs += [(graph(name), 0, 2000, {}) for name in ("k3", "rp2", "tree7")]
    runs += [(c4, 0, 600, dict(mode="hinted", hints=[c4]))]
    halted = candidates = one_key = 0
    for g, start, steps, kw in runs:
        checker = ReprChecker(walk=walk, **kw)
        run_agent(g, checker, start, steps)
        halted += checker.halted
        candidates += checker.candidates
        one_key += checker.one_key
    assert halted and candidates and one_key


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


FIELD = struct.Struct("<q")  # a head's byte length, or a next port
CHILD = struct.Struct("<qqq")  # (via port, entry port, interned id)
TAIL = struct.Struct("<qq")  # (k, descent port or -1)
TOP = struct.Struct("<qqq")  # the top frame's next port, then the tail
ROOT = bytes(32)  # the link below the root frame


class ParentDigest:
    """``PhasedAgent.digest`` before recorded steps got cheaper, with its
    caches held here instead of on the agent: a hash chain over the frame
    stack, closed at the top with the next port, k, the descent port and
    a rest hash over the table, log, accepted candidate and configuration
    (see ``PhasedAgent.digest`` for the encoding)."""

    def __init__(self):
        self.config_hash = None
        self.rest_at = None  # (table, log) lengths of rest
        self.rest = None
        self.chain: list[list] = []  # [frame, running hash, children in it]
        self.heads: dict[tuple, bytes] = {}

    def __call__(self, agent: PhasedAgent) -> str:
        table, log = agent.table, agent.phase_log
        if self.rest_at != (len(table), len(log)):
            if self.config_hash is None:
                cfg = (agent.mode, agent.walk,
                       tuple(h.encoding() for h in agent.hints))
                self.config_hash = hashlib.sha256(
                    repr(cfg).encode()).hexdigest()
            acc = None
            if agent.accepted is not None:
                acc = (agent.accepted.graph.encoding(), agent.accepted.root)
            rest = (len(table), table.digest(), tuple(log), acc,
                    self.config_hash)
            self.rest = hashlib.sha256(repr(rest).encode()).digest()
            self.rest_at = (len(table), len(log))
        dp = agent._descend_port
        if dp is None:
            dp = -1
        chain, stack = self.chain, agent.stack
        if not stack:
            del chain[:]
            return hashlib.sha256(TAIL.pack(agent.k, dp)
                                  + self.rest).hexdigest()
        d = len(stack)
        if d > len(chain):
            d = len(chain)
        while d and chain[d - 1][0] is not stack[d - 1]:
            d -= 1
        del chain[d:]
        j = d - 1 if d else 0
        for f in stack[j:]:
            if j < d:
                entry = chain[j]
            else:
                if j:
                    below = chain[j - 1]
                    link = below[1].copy()
                    link.update(FIELD.pack(below[0][4]))
                    h = hashlib.sha256(link.digest())
                else:
                    h = hashlib.sha256(ROOT)
                key = (f[0], f[1], f[2])
                head = self.heads.get(key)
                if head is None:
                    head = repr(key).encode()
                    head = self.heads[key] = FIELD.pack(len(head)) + head
                h.update(head)
                entry = [f, h, 0]
                chain.append(entry)
            children, h = f[3], entry[1]
            if entry[2] < len(children):
                for child in children[entry[2]:]:
                    h.update(CHILD.pack(*child))
                entry[2] = len(children)
            j += 1
        top = h.copy()
        top.update(TOP.pack(f[4], agent.k, dp) + self.rest)
        return top.hexdigest()


class BothDigests:
    """Drives a PhasedAgent and takes its digest and the parent's after
    every decision, or, given a seeded rng, after irregular gaps."""

    def __init__(self, rng: random.Random | None = None, **agent_kw):
        self.agent = PhasedAgent(**agent_kw)
        self.parent = ParentDigest()
        self.rng = rng
        self.step, self.due = -1, 0
        self.taken: list[tuple[int, str, str]] = []  # (step, digest, parent)

    def act(self, obs):
        action = self.agent.act(obs)
        self.step += 1
        if self.step == self.due:
            self.taken.append((self.step, agent_digest(self.agent),
                               self.parent(self.agent)))
            rng = self.rng
            self.due += 1 if rng is None else rng.randint(
                1, rng.choice((2, 6, 20, 80)))
        return action


@pytest.mark.parametrize("walk", ["full", "nonbacktracking"])
def test_digests_are_the_parents_byte_for_byte(walk):
    """Every canonical graph on at most 4 vertices and every catalog
    terrain, plus a hinted run through candidate phase ends, digested at
    every step and at irregular gaps: each digest is the parent's hex
    string, and a gap's digest is the every-step run's at that step."""
    c4 = graph("c4")
    runs = [(g, 300, {}) for g in all_canonical(4)]
    runs += [(graph(name), 1000, {}) for name in names()]
    runs += [(c4, 600, dict(mode="hinted", hints=[c4]))]
    steps = gaps = 0
    for seed, (g, cap, kw) in enumerate(runs):
        every = BothDigests(walk=walk, **kw)
        run_agent(g, every, 0, cap)
        for _, digest, parent in every.taken:
            assert digest == parent, (g.encoding(), walk, kw)
        at = {step: digest for step, digest, _ in every.taken}
        sampled = BothDigests(random.Random(seed), walk=walk, **kw)
        run_agent(g, sampled, 0, cap)
        for step, digest, parent in sampled.taken:
            assert digest == parent == at[step], (g.encoding(), walk, step)
        steps += len(every.taken)
        gaps += len(sampled.taken)
    assert steps > 40_000 and gaps > 3_000


def test_lift_twin_digest_stream_is_frozen():
    """sha256 over the 10,001 step digests of the c8 -> c4 base twin on the
    full walk.  A change of digest values fails here and must be logged."""
    f8, c8, c4 = vertex_map("c8_to_c4")
    steps = run_agent(c4, PhasedAgent(), f8[0], 10**4, record=True).steps
    assert len(steps) == 10_001
    stream = "".join(step.digest for step in steps).encode()
    assert hashlib.sha256(stream).hexdigest() == (
        "01856a2ff3105eb89af8246119d517bb17ac15a0a2113e6c99d75c4878fdf525")


LABEL = graph("k3").label(0)


def hand_built(*frames, k=1, descend=None) -> PhasedAgent:
    """An agent at phase k with the given (via, entry, children, next port)
    frames on its stack, all with one label, the given pending descent
    port, and nothing else."""
    agent = PhasedAgent()
    agent.k, agent._descend_port = k, descend
    agent.stack = [[via, entry, LABEL, list(children), next_port]
                   for via, entry, children, next_port in frames]
    return agent


def naive(agent: PhasedAgent, render) -> bytes:
    """The stack's fields, then k and the descent port, in one stream,
    labels left out, each rendered alone: no separators, counts or
    lengths."""
    fields = []
    for via, entry, _, children, next_port in agent.stack:
        fields += [via, entry, *chain.from_iterable(children), next_port]
    fields += [agent.k, agent._descend_port]
    return b"".join(map(render, fields))


def decimal(x) -> bytes:
    return str(x).encode()


def fixed64(x) -> bytes:
    return struct.pack("<q", -1 if x is None else x)


def none_as_zero(x) -> bytes:
    return struct.pack("<q", x or 0)


def fixed32(x) -> bytes:
    return struct.pack("<I", (-1 if x is None else x) % 2**32)


def none_as_nothing(x) -> bytes:
    return b"" if x is None else str(x).encode()


@pytest.mark.parametrize("a,b,render", [
    # one extra child versus a different next port
    (([(None, None, [(1, 0, 2)], 3)], 1, None),
     ([(None, None, [], 1023)], 1, None), decimal),
    # a frame boundary moved: the child belongs to the frame below or above
    (([(None, None, [(1, 0, 2)], 3), (4, 0, [], 1)], 1, None),
     ([(None, None, [], 1), (0, 2, [(3, 4, 0)], 1)], 1, None), fixed64),
    # the root's via and entry are None, not port 0
    (([(None, None, [], 0)], 1, None), ([(0, 0, [], 0)], 1, None),
     none_as_zero),
    # interned ids above 2**31 that agree in their low 32 bits
    (([(None, None, [(0, 1, 2**31 + 7)], 1)], 1, None),
     ([(None, None, [(0, 1, 2**32 + 2**31 + 7)], 1)], 1, None), fixed32),
    # no pending descent, not a descent through port 0
    (([(None, None, [], 1)], 1, None), ([(None, None, [], 1)], 1, 0),
     none_as_zero),
    # k and the top frame's next port swapped
    (([(None, None, [], 1)], 11, None), ([(None, None, [], 11)], 1, None),
     decimal),
    # an empty stack, as after a halt, against a root frame
    (([], 1, 0), ([(None, None, [], 1)], 0, None), none_as_nothing),
], ids=["extra_child", "frame_boundary", "root_none", "ids_past_2_31",
        "descent_none", "k_next_port_swapped", "empty_stack"])
def test_states_a_naive_concatenation_confuses_get_distinct_digests(
        a, b, render):
    """Each side is (frames, k, pending descent port)."""
    def build(state):
        frames, k, descend = state
        return hand_built(*frames, k=k, descend=descend)

    assert naive(build(a), render) == naive(build(b), render)
    assert agent_digest(build(a)) != agent_digest(build(b))
    assert full_repr_digest(build(a)) != full_repr_digest(build(b))
    assert agent_digest(build(a)) == agent_digest(build(a))


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

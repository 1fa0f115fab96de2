"""The exploring agent and the harness that walks it over a terrain.

Strict separation: the agent receives only (radius-1 label, entry port)
observations and answers with a port number or None (halt).  The harness
owns the graph, executes moves, counts them, and records positions.  No
vertex identity ever crosses the boundary, so the agent is anonymous by
construction: two runs receiving equal observation sequences evolve
identically, which is exactly what the lift checker exercises.

The agent explores in phases k = 1, 2, ...; phase k is a depth-first walk
of the depth-2k walk tree (each tree edge costs two moves, down and up,
so every phase ends back home), folding observed subtrees into a per-run
intern table.  At phase end (computation is free, only moves are
charged) it develops the acquired view's universal cover, takes it as
the candidate when it closes on fewer than k vertices, and halts when
every simple cycle of the candidate is k-contractible.

``run_agent`` and ``lift_check`` step the agent move by move.
``explore`` runs the same loop over the agent's own decisions, but folds
each descent whose round trip fits in the moves left instead of taking
it, and charges its moves; it leaves the agent in exactly the state the
stepped run would.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import count
from typing import Iterable, NamedTuple

from .complexes import is_graph_covering
from .enumeration import Candidate, find_candidate
from .errors import (BudgetExceeded, InvalidMove, KernelFault, NotACovering,
                     NotSimplicial)
from .graphs import Label, PortGraph, port_map
from .homotopy import all_simple_cycles_k_contractible
from .views import ViewInterner, _fold, view_key

Observation = tuple[Label, "int | None"]

MOVE_BUDGET = 10**6  # default agent moves per exploration run

# fixed-width fields of the encoding hashed by PhasedAgent.digest
_FIELD = struct.Struct("<q")  # a head's byte length, or a next port
_CHILD = struct.Struct("<qqq")  # (via port, entry port, interned id)
_TAIL = struct.Struct("<qq")  # (k, descent port or -1)
_TOP = struct.Struct("<qqq")  # the top frame's next port, then the tail
_ROOT = bytes(32)  # the link below the root frame


class PhasedAgent:
    """Phased view acquisition with a candidate-based halting test.

    ``mode`` selects the candidate source: "exhaustive" (the view's
    developed universal cover) or "hinted" (the first matching hint).
    ``walk`` selects the acquisition strategy: "full" walks the
    complete walk tree; "nonbacktracking" skips the entry port at non-root
    nodes, which determines the same view at exponentially fewer moves.
    """

    def __init__(self, mode: str = "exhaustive", hints: Iterable[PortGraph] = (),
                 walk: str = "full"):
        if walk not in ("full", "nonbacktracking"):
            raise ValueError(f"unknown walk mode {walk!r}")
        if mode not in ("exhaustive", "hinted"):
            raise ValueError(f"unknown candidate mode {mode!r}")
        self.mode = mode
        self.hints = tuple(hints)
        self.walk = walk
        self.nb = walk == "nonbacktracking"
        self.k = 0
        self.table = ViewInterner()  # local: ids depend only on observations
        # frames: [via_port_at_parent, entry_port, label, children, next_port]
        self.stack: list[list] = []
        self._descend_port: int | None = None
        self.phase_log: list[tuple] = []
        self.accepted: Candidate | None = None  # halts at phase k once set
        # digest caches, filled by digest() only
        self._sha256 = None  # hashlib.sha256, bound by the first digest
        self._config_hash: str | None = None
        self._rest_at = -1  # table plus log length hashed into _rest
        self._rest: bytes | None = None
        self._logged = -1  # log length rendered into _rest_tail
        self._rest_tail = ""  # the rest's repr after the table's fields
        self._chain: list[list] = []  # see digest
        self._heads: dict[tuple, bytes] = {}  # frame head -> its encoding

    # -- protocol ----------------------------------------------------------

    def act(self, obs: Observation) -> int | None:
        """One move decision: descend to the next port of the top frame,
        ascend through the entry port once it has none left, or end the
        phase at home.

        The top frame is always at the observed vertex, so its degree is
        ``label[0]``.  A frame with no ports left keeps the ``next_port``
        value it ran out at (``digest`` hashes that field).
        """
        label, entry = obs
        if self.accepted is not None:
            return None
        stack = self.stack
        p = self._descend_port
        if p is not None:
            frame = [p, entry, label, [], 0]
            stack.append(frame)
            self._descend_port = None
        elif stack:
            frame = stack[-1]
            if frame[2] != label:
                raise KernelFault("label changed under the agent while ascending")
        elif self.k != 0:
            raise KernelFault("agent has no frame mid-run")
        else:
            self.k = 1
            frame = [None, None, label, [], 0]
            stack.append(frame)
        while True:
            if len(stack) <= 2 * self.k:
                p = frame[4]
                if self.nb and p == frame[1]:  # never at the root: entry None
                    p += 1
                if p < label[0]:
                    frame[4] = p + 1
                    self._descend_port = p
                    return p
                frame[4] = p
            ident = self.table.intern((frame[2], tuple(frame[3])))
            stack.pop()
            if stack:
                stack[-1][3].append((frame[0], frame[1], ident))
                return frame[1]  # ascend through the port we entered by
            if self._phase_end(ident):
                return None
            frame = [None, None, frame[2], [], 0]
            stack.append(frame)

    def digest(self) -> str:
        """sha256 memory digest: a function of the agent's state.

        The frame stack enters as a hash chain.  Frame j's running hash
        starts from the 32-byte link below it (32 zero bytes below the
        root) and covers an injective byte encoding of the frame: its head
        (via, entry, label) rendered by repr behind an 8-byte length, then
        each child triple in three 8-byte fields.  The digest is a copy of
        the top frame's running hash closed with the tail: the top frame's
        next port, k and the pending descent port (-1 for None) in 8 bytes
        each, then the 32 raw bytes of the rest hash.  The rest hash is
        sha256 over the repr of the configuration's hash (mode, walk, hint
        encodings), the intern table (length and running digest), the phase
        log (each phase's view id included) and the accepted candidate.  An
        empty stack hashes the tail without a next port; the message
        lengths tell it from any frame.  Equal states give equal digests
        and, up to sha256 collisions, unequal states unequal ones.  Ids and
        ports past 2**63 - 1 raise ``struct.error``, never collide.

        Everything is cached, so a digest hashes only what changed since
        the previous one, and renders each distinct head once.  A frame's
        head is fixed when it is pushed and its children only grow, so
        each chain entry keeps its running hash over the children packed
        so far.  Link j is a copy of frame j's
        running hash closed with its next port, built when frame j + 1 is
        hashed first; that port cannot change while frame j + 1 sits on
        it.  Frames are never pushed twice, so while the highest frame
        that is still the cached object stayed on the stack nothing below
        it changed: the scan starts from the top, and only that frame and
        the frames above it are rehashed.  The rest hash is recomputed
        only when the table or the phase log grew (both are append-only,
        and ``accepted`` is set only at a phase end, which appends to the
        log), and the log's and the candidate's part of its repr only when
        the log grew.
        """
        table, log = self.table, self.phase_log
        if self._rest_at != table.size() + len(log):
            if self._sha256 is None:
                import hashlib  # here, not at the top: explore never hashes
                self._sha256 = hashlib.sha256
                cfg = (self.mode, self.walk,
                       tuple(h.encoding() for h in self.hints))
                self._config_hash = self._sha256(
                    repr(cfg).encode()).hexdigest()
            if self._logged != len(log):
                acc = None
                if self.accepted is not None:
                    acc = (self.accepted.graph.encoding(), self.accepted.root)
                self._rest_tail = ", %r, %r, %r)" % (tuple(log), acc,
                                                      self._config_hash)
                self._logged = len(log)
            # repr((len(table), table.digest(), tuple(log), acc, config))
            rest = "(%r, %r%s" % (len(table), table.digest(), self._rest_tail)
            self._rest = self._sha256(rest.encode()).digest()
            # both are append-only: the sum grows whenever either does
            self._rest_at = len(table) + len(log)
        dp = self._descend_port
        if dp is None:
            dp = -1
        chain, stack = self._chain, self.stack
        d = len(stack)
        if not d:
            del chain[:]
            return self._sha256(_TAIL.pack(self.k, dp)
                                + self._rest).hexdigest()
        j = len(chain)
        if j > d:
            j = d
        while j and chain[j - 1][0] is not stack[j - 1]:
            j -= 1
        del chain[j:]
        # frame j - 1 is the highest one still cached (none when j = 0):
        # pack its new children, then hash each frame above it in turn
        while True:
            if j:
                entry = chain[j - 1]
                f, h, packed = entry
                children = f[3]
                while packed < len(children):
                    h.update(_CHILD.pack(*children[packed]))
                    packed += 1
                entry[2] = packed
                if j == d:
                    break
                link = h.copy()
                link.update(_FIELD.pack(f[4]))
                link = link.digest()
            else:
                link = _ROOT
            f = stack[j]
            key = (f[0], f[1], f[2])
            head = self._heads.get(key)
            if head is None:
                head = repr(key).encode()
                head = self._heads[key] = _FIELD.pack(len(head)) + head
            h = self._sha256(link + head)
            chain.append([f, h, 0])  # frame, running hash, children in it
            j += 1
        top = h.copy()
        top.update(_TOP.pack(f[4], self.k, dp) + self._rest)
        return top.hexdigest()

    # -- internals ----------------------------------------------------------

    def _phase_end(self, ident: int) -> bool:
        k = self.k
        vk = view_key(self.table, ident, 2 * k, self.nb)
        cand = find_candidate(vk, k, mode=self.mode, hints=self.hints)
        cand_enc = verdict = None
        halted = False
        if cand is not None:
            cand_enc = cand.graph.encoding()
            try:
                ok = all_simple_cycles_k_contractible(cand.graph, k)
                verdict = "contractible" if ok else "not_contractible"
            except BudgetExceeded:
                ok = False
                verdict = "test_budget_exceeded"
            if ok:
                self.accepted = cand
                halted = True
        self.phase_log.append((k, ident, cand_enc, verdict))
        if not halted:
            self.k = k + 1
        return halted


def agent_digest(agent) -> str:
    """The agent's sha256 memory digest, 64 hex characters: ``agent.digest()``.

    Equal states must give equal digests, so the rendering is value based:
    plain data (tuples, ints, strings, None) by repr, which is canonical
    for it, and ints in fixed-width fields.  Reference-sharing serializers
    (pickle) are unsuitable here: byte output would depend on which equal
    label tuples happen to be the same object, which differs across
    terrains.  A PhasedAgent caches hashes of its large parts (see
    ``PhasedAgent.digest``), so a digest after one move costs a constant
    amount of hashing, whatever the stack depth.
    """
    return agent.digest()


# -- harness --------------------------------------------------------------------


class StepRecord(NamedTuple):
    position: int
    entry: int | None
    action: int | None  # None means halt
    digest: str  # agent_digest after the decision


@dataclass(frozen=True)
class RunResult:
    halted: bool
    moves: int
    start: int
    final_position: int
    visited: frozenset[int]
    steps: tuple[StepRecord, ...]  # empty unless recording was requested


def run_agent(g: PortGraph, agent, start: int = 0,
              move_budget: int = MOVE_BUDGET,
              record: bool = False) -> RunResult:
    """Drive the agent until it halts or the move budget is exhausted.

    ``record`` keeps one StepRecord per decision: position, entry port,
    action and the agent's sha256 memory digest.  Each move reads the
    graph's adjacency and back-port tuples directly, and its cached label
    unless that is still unset.  An action that is not an int (a bool
    included) or not a port of the current vertex raises InvalidMove.  A
    budget exhaustion leaves the final decision unexecuted and is reported
    in the result, never as an exception.  A start that is not a vertex of
    the graph (a bool included) raises InvalidMove, and a move budget that
    is not an int >= 0 (a bool or ``float("inf")`` included) ValueError.
    """
    _check_start(g, start)
    _check_budget(move_budget)
    adj, back, labels, label_of = g._adj, g._back, g._labels, g.label
    act = agent.act
    pos, entry, moves = start, None, 0
    visited = {start}
    seen = visited.add
    steps: list[StepRecord] = []
    keep, new_record = steps.append, tuple.__new__
    while True:
        label = labels[pos]
        if label is None:
            label = label_of(pos)
        action = act((label, entry))
        if record:
            # tuple.__new__ skips StepRecord's Python-level __new__; the
            # digest goes through the module's agent_digest, which is the
            # name the benchmark's trace counts
            keep(new_record(StepRecord,
                            (pos, entry, action, agent_digest(agent))))
        if action is None:
            return RunResult(True, moves, start, pos,
                             frozenset(visited), tuple(steps))
        nbrs = adj[pos]
        if type(action) is not int or not 0 <= action < len(nbrs):
            raise InvalidMove(
                f"agent chose port {action!r} at a degree-{len(nbrs)} vertex"
            )
        if moves >= move_budget:
            return RunResult(False, moves, start, pos,
                             frozenset(visited), tuple(steps))
        entry = back[pos][action]
        pos = nbrs[action]
        moves += 1
        seen(pos)


def _check_start(g: PortGraph, start, what: str = "start vertex") -> None:
    if type(start) is not int:  # a bool is an int subclass, not a vertex
        raise InvalidMove(f"{what} {start!r} is not an int")
    if not 0 <= start < g.n:
        raise InvalidMove(f"{what} {start} out of range")


def _check_budget(move_budget) -> None:
    if type(move_budget) is not int or move_budget < 0:
        raise ValueError(
            f"move budget must be an int >= 0, got {move_budget!r}")


@dataclass(frozen=True)
class ExploreOutcome:
    status: str  # "halted" | "budget_exhausted"
    moves: int
    phases_completed: int
    halt_phase: int | None
    candidate: Candidate | None
    visited: frozenset[int]
    run: RunResult
    agent: PhasedAgent

    @property
    def halted(self) -> bool:
        return self.status == "halted"


def explore(g: PortGraph, start: int = 0, move_budget: int = MOVE_BUDGET,
            mode: str = "exhaustive", hints: Iterable[PortGraph] = (),
            walk: str = "full") -> ExploreOutcome:
    """One full exploration run; asserts total visitation on halt.

    The run is the move loop of
    ``run_agent(g, PhasedAgent(mode, hints, walk), start, move_budget)``
    with one shortcut, so it has the same result and leaves the agent in
    the same state, down to ``agent_digest``.  A descent whose round trip,
    two moves per node of the child's walk subtree, fits in the moves left
    is not taken: the descent is cancelled, the subtree is folded into the
    top frame's children as the ascent back would leave them, and its
    moves are charged.  Every other decision is taken as one move, so a
    phase that fits costs one pass per port of home, and the phase the
    budget cuts one pass per port of each frame it opens.  A bad start or
    budget raises as in ``run_agent``.
    """
    agent = PhasedAgent(mode=mode, hints=hints, walk=walk)
    _check_start(g, start)
    _check_budget(move_budget)
    adj, back, label, nb = g._adj, g._back, g.label, agent.nb
    stack = agent.stack
    sizes: dict = {}  # walk-subtree node counts, keyed as the fold memo
    folds: dict = {}  # fold memo, shared by every fold of this run
    pos, entry, moves = start, None, 0
    visited = {start}
    while True:
        action = agent.act((label(pos), entry))
        if action is None or moves >= move_budget:
            break
        w, bp = adj[pos][action], back[pos][action]
        if agent._descend_port is not None:
            depth = 2 * agent.k - len(stack)
            size = _fold(g, w, bp, depth, _count, nb, sizes)
            if 2 * size <= move_budget - moves:
                agent._descend_port = None
                ident = _fold(g, w, bp, depth, agent.table.intern, nb, folds)
                stack[-1][3].append((action, bp, ident))
                moves += 2 * size
                entry = action  # back home through the port it left by
                continue
        pos, entry = w, bp
        moves += 1
        visited.add(pos)
    # a fold memoizes every subtree it enters, keyed by the subtree's vertex
    run = RunResult(action is None, moves, start, pos,
                    frozenset(visited.union(key[0] for key in folds)), ())
    if run.halted and run.visited != frozenset(g.vertices):
        raise KernelFault(
            f"halted having visited {len(run.visited)} of {g.n} vertices"
        )
    return ExploreOutcome(
        status="halted" if run.halted else "budget_exhausted",
        moves=run.moves,
        phases_completed=len(agent.phase_log),
        halt_phase=None if agent.accepted is None else agent.k,
        candidate=agent.accepted,
        visited=run.visited,
        run=run,
        agent=agent,
    )


def _count(key: tuple) -> int:
    """Interner for ``views._fold`` that counts a subtree's nodes."""
    nodes = 1
    for _, _, child_nodes in key[1]:
        nodes += child_nodes
    return nodes


# reconstructed_projection(h, root, g, start): candidate vertices -> the
# terrain vertices their walks from root reach; perfbench calls this name
reconstructed_projection = port_map


# -- lifting ---------------------------------------------------------------------


@dataclass(frozen=True)
class LiftReport:
    ok: bool
    steps_compared: int
    first_divergence: int | None
    base_run: RunResult
    cover_run: RunResult


def lift_check(cover: PortGraph, base: PortGraph, projection: dict[int, int],
               cover_start: int = 0, move_budget: int = 10**4,
               walk: str = "full") -> LiftReport:
    """Run twin agents on a cover and its base; compare step for step.

    Both twins are fresh exhaustive agents with the given walk.  The
    projection must be a covering (NotACovering otherwise).  Equal
    observation histories force equal actions and equal memory digests, and
    the cover run's position must project to the base run's position at
    every step; the report records the first step where any of that fails.
    A cover start that is not a vertex of the cover raises InvalidMove, and
    the twins' ``run_agent`` calls check the move budget.
    """
    try:
        covering = is_graph_covering(projection, cover, base)
    except NotSimplicial as exc:  # a vertex unmapped or mapped out of range
        raise NotACovering(
            f"the given projection is not a covering: {exc}") from exc
    if not covering:
        raise NotACovering("the given projection is not a covering")
    _check_start(cover, cover_start, "cover start")

    def fresh() -> PhasedAgent:
        return PhasedAgent(walk=walk)

    base_run = run_agent(base, fresh(), projection[cover_start], move_budget,
                         record=True)
    cover_run = run_agent(cover, fresh(), cover_start, move_budget,
                          record=True)
    first: int | None = None
    # unpacking the records is cheaper than their attributes, and than
    # whole-list comparisons, which build a sliced copy of every record
    for i, (pb, eb, ab, db), (pc, ec, ac, dc) in zip(
            count(), base_run.steps, cover_run.steps):
        if ab != ac or eb != ec or db != dc or projection[pc] != pb:
            first = i
            break
    upto = min(len(base_run.steps), len(cover_run.steps))
    ok = (first is None
          and len(base_run.steps) == len(cover_run.steps)
          and base_run.halted == cover_run.halted
          and base_run.moves == cover_run.moves)
    return LiftReport(ok, upto if first is None else first, first,
                      base_run, cover_run)

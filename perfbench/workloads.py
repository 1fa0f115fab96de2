"""The four benchmark workloads: seeded inputs, job lists and output checks.

Set-up builds a workload's inputs from the seed.  A pass runs the workload's
fixed job list; each job is one call into binox and is timed on its own.
Outputs are checked after the timed passes.  Two kinds of check:

* ``check`` decides whether one output is correct; a wrong output counts as
  a failed operation.
* ``expect`` freezes the amount of work a job does (moves, phases, steps,
  maps).  A job whose work differs from its frozen counts, or differs
  between passes, means the run did different work, and its numbers must
  not be reported: the runner raises WorkMismatch.

The seed only picks among inputs that cost the same (start vertices related
by a port-preserving symmetry, or equal-size strata of a cycle or pair
sample), so two seeds time the same amount of work.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Any, Callable


class WorkMismatch(Exception):
    """The run did different work from the frozen job list."""


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    summary: Callable[[Any], tuple]  # equal on every pass
    check: Callable[[Any], bool]  # is the output correct?
    ops: Callable[[Any], int] = lambda out: 0  # units counted in ops_per_s
    expect: tuple | None = None  # frozen summary; None entries are free


@dataclass
class Workload:
    jobs: list[Job]
    samples: dict[str, int]  # input sample sizes, for provenance
    # adds counts read from outputs to a traced pass's counters
    trace_counts: Callable[[Any, list], None] = lambda tracer, outs: None
    # frozen-count mismatches of a traced pass, as messages
    cross_check: Callable[[Any, list], list] = lambda tracer, outs: []


def stratified(rng: random.Random, items, key, fraction: float) -> list:
    """Seeded sample taking round(fraction * size) items of every stratum, so
    the sample's composition does not depend on the seed."""
    strata: dict = {}
    for it in items:
        strata.setdefault(key(it), []).append(it)
    out = []
    for k in sorted(strata):
        group = strata[k]
        out.extend(rng.sample(group, max(1, round(len(group) * fraction))))
    return out


def jobs_per_span(tracer, span_name: str) -> dict[int, int]:
    per: dict[int, int] = {}
    for s in tracer.spans:
        if s[1] == span_name:
            per[s[6]] = per.get(s[6], 0) + 1
    return per


# -- explore ---------------------------------------------------------------

# (terrain, halting phase, moves): criterion 1's frozen exhaustive runs
HALTING_RUNS = (("p2", 3, 24), ("p3", 4, 156), ("k3", 4, 1344),
                ("k4", 5, 199272))
BUDGET_MOVES = 10**6
# (terrain, phases completed in BUDGET_MOVES moves, start vertices the seed
# picks from).  Cycles are oriented, so every start does the same work.  No
# two grid vertices are related by a port-preserving symmetry, and the
# candidate search's cost depends on the start (2.5 to 8.5 s), so the grid
# starts at an edge midpoint, whose phase-6 scan costs about 2 s.
BUDGET_RUNS = (("c5", 8, range(5)), ("c8", 8, range(8)), ("grid3", 6, (1,)))
# the hinted non-backtracking octahedron run of criterion 3 (start 0), cut to
# a BUDGET_MOVES prefix: the full run takes 21,523,328 moves
OCTAHEDRON_PREFIX_PHASES = 5


def explore_workload(B, seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    E, cat = B.explorer, B.catalog
    jobs: list[Job] = []

    def summary(out):
        enc = out.candidate.graph.encoding() if out.candidate else None
        return (out.status, out.moves, out.phases_completed, out.halt_phase,
                enc)

    def moves(out):
        return out.moves

    for name, phase, n_moves in HALTING_RUNS:
        g = cat.graph(name)
        jobs.append(Job(
            f"explore:{name}",
            lambda g=g: E.explore(g, move_budget=10**7),
            summary, lambda out, g=g: _halting_ok(B, g, out), moves,
            expect=("halted", n_moves, phase, phase, None)))
    budget_runs = () if quick else BUDGET_RUNS
    for name, phases, starts in budget_runs:
        g = cat.graph(name)
        start = rng.choice(tuple(starts))
        jobs.append(Job(
            f"explore:{name}@{start}",
            lambda g=g, s=start: E.explore(g, start=s,
                                           move_budget=BUDGET_MOVES),
            summary, _budget_ok, moves,
            expect=("budget_exhausted", BUDGET_MOVES, phases, None, None)))
    if not quick:
        octa = cat.graph("octahedron")
        jobs.append(Job(
            "explore:octahedron-hinted",
            lambda: E.explore(octa, mode="hinted", hints=[octa],
                              walk="nonbacktracking",
                              move_budget=BUDGET_MOVES),
            summary, _budget_ok, moves,
            expect=("budget_exhausted", BUDGET_MOVES,
                    OCTAHEDRON_PREFIX_PHASES, None, None)))

    def trace_counts(tracer, outs):
        tracer.counts["explorer.moves"] += sum(o.moves for o in outs)
        tracer.counts["views.interned_ids"] += sum(len(o.agent.table)
                                                   for o in outs)

    def cross_check(tracer, outs):
        # every phase end calls find_candidate exactly once
        per_job = jobs_per_span(tracer, "enumeration.find_candidate")
        return [f"{job.name}: {per_job.get(i, 0)} candidate searches for "
                f"{out.phases_completed} phases"
                for i, (job, out) in enumerate(zip(jobs, outs))
                if per_job.get(i, 0) != out.phases_completed]

    return Workload(jobs, {"agent_runs": len(jobs)}, trace_counts,
                    cross_check)


def _halting_ok(B, g, out) -> bool:
    if not out.halted or out.visited != frozenset(g.vertices):
        return False
    h, root = out.candidate.graph, out.candidate.root
    f = B.explorer.reconstructed_projection(h, root, g, out.run.start)
    if f is None or not B.complexes.is_graph_covering(f, h, g):
        return False
    # isomorphism classes, not encodings: any candidate of the right class
    return B.cover.isomorphism(h, B.cover.universal_cover(g).cover) is not None


def _budget_ok(out) -> bool:
    return (out.status == "budget_exhausted" and out.moves == BUDGET_MOVES
            and out.candidate is None and out.halt_phase is None)


# -- lift --------------------------------------------------------------------

LIFT_STEPS = 10**4  # criterion 4


def lift_workload(B, seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    E, cat = B.explorer, B.catalog
    steps = 10**3 if quick else LIFT_STEPS
    maps = ("c8_to_c4",) if quick else ("c8_to_c4", "rp2_cover_to_rp2")
    jobs = []
    for name in maps:
        f, cover, base = cat.vertex_map(name)
        # deck transformations are port-preserving automorphisms of the
        # cover, so every lift of one base vertex starts an identical run
        lifts = [u for u in cover.vertices if f[u] == f[0]]
        if name == "c8_to_c4":  # the oriented 8-cycle is vertex transitive
            lifts = list(cover.vertices)
        start = rng.choice(lifts)
        jobs.append(Job(
            f"lift:{name}@{start}",
            lambda f=f, c=cover, b=base, s=start: E.lift_check(
                c, b, f, cover_start=s, move_budget=steps),
            lambda rep: (rep.steps_compared, rep.base_run.moves,
                         rep.cover_run.moves, len(rep.base_run.steps),
                         len(rep.cover_run.steps)),
            lambda rep: (rep.ok and rep.steps_compared >= steps
                         and rep.first_divergence is None),
            lambda rep: rep.base_run.moves + rep.cover_run.moves,
            expect=(steps + 1, steps, steps, steps + 1, steps + 1)))

    def trace_counts(tracer, outs):
        tracer.counts["explorer.moves"] += sum(
            r.base_run.moves + r.cover_run.moves for r in outs)

    def cross_check(tracer, outs):
        want = sum(len(r.base_run.steps) + len(r.cover_run.steps)
                   for r in outs)
        got = tracer.leaf.get("explorer.agent_digest", [None, 0])[1]
        return [] if got == want else [f"{got} digests for {want} steps"]

    return Workload(jobs, {"lift_checks": len(jobs), "steps": steps},
                    trace_counts, cross_check)


# -- contract -----------------------------------------------------------------

RP2_SPLIT = (8284, 5426)  # closed-lift and open-lift simple cycles of rp2
ICOSAHEDRON_CYCLES = 12878
CERTIFICATE_MOVES = 20
OPEN_SEARCH_STATES = 1000  # criterion 7's cap on open-lift searches
SAMPLE_FRACTION = 1 / 24
# Criterion 7 proves the open cycle non-contractible at k=6, a 7-9 s search
# on a 2-core Xeon VM; k=5 keeps the exact exhaustive negative at 1.5 s.
EXACT_NEGATIVE_K = 5
BUDGET = "search_budget_exceeded"
STRATA = Path(__file__).resolve().parent / "contract_strata.json"


def rp2_lift_split(B):
    """Simple cycles of rp2 split by whether their lift to the universal
    cover closes (as in the acceptance tests)."""
    g = B.catalog.graph("rp2")
    res = B.cover.universal_cover(g)
    lift_of: dict[int, int] = {}
    for u, v in res.projection.items():
        lift_of.setdefault(v, u)

    def closes(cyc):
        u = lift_of[cyc[0]]
        for a, b in zip(cyc, cyc[1:]):
            u = res.cover.neighbor(u, g.port_to(a, b))
        return u == lift_of[cyc[0]]

    cycles = B.homotopy.simple_cycles(g)
    closed = [c for c in cycles if closes(c)]
    open_ = [c for c in cycles if not closes(c)]
    if (len(closed), len(open_)) != RP2_SPLIT:
        raise WorkMismatch(f"rp2 lift split {len(closed)}/{len(open_)}, "
                           f"frozen {RP2_SPLIT[0]}/{RP2_SPLIT[1]}")
    return g, closed, open_


def contract_inputs(B):
    """rp2's lift split, the icosahedron's cycles and both complexes."""
    rp2, closed, open_ = rp2_lift_split(B)
    ico = B.catalog.graph("icosahedron")
    ico_cycles = B.homotopy.simple_cycles(ico)
    if len(ico_cycles) != ICOSAHEDRON_CYCLES:
        raise WorkMismatch(f"{len(ico_cycles)} icosahedron cycles, frozen "
                           f"{ICOSAHEDRON_CYCLES}")
    rp2x = B.complexes.clique_complex(rp2)
    icox = B.complexes.clique_complex(ico)
    return closed, open_, ico_cycles, rp2x, icox


def certificate_populations(B):
    """(kind, cycles, complex) of the cycles that get certificates."""
    closed, _, ico_cycles, rp2x, icox = contract_inputs(B)
    return ("closed", closed, rp2x), ("icosahedron", ico_cycles, icox)


def contract_workload(B, seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    H, C, cat = B.homotopy, B.complexes, B.catalog
    closed, open_, ico_cycles, rp2x, icox = contract_inputs(B)
    k4x = C.clique_complex(cat.graph("k4"))
    c4x = C.clique_complex(cat.graph("c4"))
    small = B.config.Budgets(search_states=OPEN_SEARCH_STATES)
    fraction = 1 / 400 if quick else SAMPLE_FRACTION
    # certificate cycles: the same share of every cost class (make_strata.py)
    strata = json.loads(STRATA.read_text(encoding="utf-8"))
    samples = {"open": stratified(rng, open_, len, fraction)}
    for kind, cycles in (("closed", closed), ("icosahedron", ico_cycles)):
        if len(strata[kind]) != len(cycles):
            raise WorkMismatch(f"{len(cycles)} {kind} cycles, "
                               f"{len(strata[kind])} cost classes")
        picked = stratified(rng, list(zip(strata[kind], cycles)),
                            lambda p: p[0], fraction)
        samples[kind] = [cyc for _, cyc in picked]

    def cert_summary(out):
        return out if out in (None, BUDGET) else tuple(mv for mv, _ in out)

    def one(out):
        return 1

    jobs = []
    for kind, cx in (("closed", rp2x), ("icosahedron", icox)):
        for cyc in samples[kind]:
            jobs.append(Job(
                f"certify:{kind}:{cyc}",
                lambda c=cyc, x=cx: H.contraction_certificate(
                    c, x, CERTIFICATE_MOVES),
                cert_summary,
                lambda out, c=cyc, x=cx: _replays(B, c, x, out), one))

    def no_certificate(cyc):
        try:
            return H.contraction_certificate(cyc, rp2x, CERTIFICATE_MOVES,
                                             small)
        except B.errors.SearchBudgetExceeded:
            return BUDGET

    for cyc in samples["open"]:
        # a certificate here would be a false positive
        jobs.append(Job(f"certify:open:{cyc}",
                        lambda c=cyc: no_certificate(c), cert_summary,
                        lambda out: out in (None, BUDGET), one))

    def exact(name, fn, want):
        jobs.append(Job(name, fn, lambda out: (out,),
                        lambda out, w=want: out == w, one))

    for loop, m in (((0, 1, 0), 1), ((0, 1, 2, 0), 1), ((0, 1, 2, 3, 0), 2),
                    ((0, 1, 0, 1, 0), 2)):
        exact(f"exact:k4-min:{loop}",
              lambda lp=loop: H.min_contraction_moves(lp, k4x, 10), m)
        for k in range(m + 3):
            exact(f"exact:k4:{loop}@{k}",
                  lambda lp=loop, k=k: H.is_k_contractible(lp, k4x, k),
                  k >= m)
    exact("exact:c4-square@20",
          lambda: H.is_k_contractible((0, 1, 2, 3, 0), c4x, 20), False)
    k_neg = 4 if quick else EXACT_NEGATIVE_K
    exact(f"exact:rp2-open:{open_[0]}@{k_neg}",
          lambda: H.is_k_contractible(open_[0], rp2x, k_neg), False)

    sizes = {f"{k}_cycles": len(v) for k, v in samples.items()}
    return Workload(jobs, {"verdicts": len(jobs), **sizes})


def _replays(B, loop, cx, cert) -> bool:
    """A certificate of at most CERTIFICATE_MOVES moves whose every step is
    one of neighbor_moves' moves, ending at the trivial loop."""
    if cert is None or cert == BUDGET or len(cert) > CERTIFICATE_MOVES:
        return False
    cur = tuple(loop)
    for step in cert:
        if step not in B.homotopy.neighbor_moves(cur, cx):
            return False
        cur = step[1]
    return cur == (loop[0],)


# -- cover -------------------------------------------------------------------

CANONICAL_GRAPHS = 124  # canonical port graphs on <= 4 vertices
PAIR_FRACTION = 1 / 64
CLASSIFY_VERTICES = 10**6  # star completion budget of the working-set case


def cover_workload(B, seed: int, quick: bool) -> Workload:
    rng = random.Random(seed)
    Cv, C, cat = B.cover, B.complexes, B.catalog
    jobs = []

    def catalog_run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = B.cli.main(["catalog", "run"])
        return code, buf.getvalue()

    jobs.append(Job("cli:catalog-run", catalog_run,
                    lambda out: (out[0], len(out[1].splitlines())),
                    lambda out: out[0] == 0
                    and out[1].endswith("catalog verified\n")))

    for e in cat.ENTRIES:
        if e.expected_kind == "exceeds_budget":
            continue
        g = e.build()
        if quick and g.n > 4:
            continue
        ref = Cv.universal_cover(g, 0, verify=False).cover
        # the audit's cost depends on the basepoint (1.1 to 1.9 s on
        # chordal6 and the octahedron), so it is fixed, not seeded
        base = g.n - 1

        def develop(g=g, base=base, ref=ref):
            res = Cv.universal_cover(g, base)
            iso = res.finite and Cv.isomorphism(res.cover, ref) is not None
            return res.status, res.sheets, res.explored, iso

        jobs.append(Job(
            f"ucover:{e.name}@{base}", develop, lambda out: out,
            lambda out, e=e, n=g.n: out == ("finite", e.expected_sheets,
                                             e.expected_sheets * n, True)))

    budgets = B.config.Budgets(cover_vertices=10**4 if quick
                               else CLASSIFY_VERTICES)
    grid = cat.graph("grid3")
    jobs.append(Job("classify:grid3", lambda: Cv.classify(grid, budgets),
                    lambda out: (out.kind,),
                    lambda out: out.kind == cat.entry("grid3").expected_kind))

    graphs = [g for n in range(1, 5)
              for g in B.enumeration.canonical_graphs(n)]
    if len(graphs) != CANONICAL_GRAPHS:
        raise WorkMismatch(f"{len(graphs)} canonical graphs, frozen "
                           f"{CANONICAL_GRAPHS}")
    complexes = [C.clique_complex(g) for g in graphs]
    pairs = stratified(rng, list(product(range(len(graphs)), repeat=2)),
                       lambda p: (graphs[p[0]].n, graphs[p[1]].n),
                       1 / 1024 if quick else PAIR_FRACTION)
    not_simplicial = B.errors.NotSimplicial

    def sweep(i, j):
        a, b, ka, kb = graphs[i], graphs[j], complexes[i], complexes[j]
        checked = coverings = disagreements = 0
        for images in product(range(b.n), repeat=a.n):
            f = dict(enumerate(images))
            gc = C.is_graph_covering(f, a, b)
            try:
                sc = C.is_simplicial_covering(f, ka, kb)
            except not_simplicial:
                sc = False
            checked += 1
            coverings += gc
            disagreements += gc != sc
        return checked, coverings, disagreements

    for i, j in pairs:
        maps = graphs[j].n ** graphs[i].n
        jobs.append(Job(f"sweep:{i}->{j}", lambda i=i, j=j: sweep(i, j),
                        lambda out: out, lambda out: out[2] == 0,
                        lambda out: out[0], expect=(maps, None, None)))

    def trace_counts(tracer, outs):
        tracer.counts["complexes.disagreements"] += sum(
            o[2] for job, o in zip(jobs, outs)
            if job.name.startswith("sweep:"))

    def cross_check(tracer, outs):
        n = tracer.counts["complexes.disagreements"]
        return [] if n == 0 else [f"{n} covering disagreements"]

    return Workload(jobs, {"jobs": len(jobs), "pairs": len(pairs),
                           "maps": sum(graphs[j].n ** graphs[i].n
                                       for i, j in pairs)},
                    trace_counts, cross_check)


WORKLOADS = {
    "explore": explore_workload,
    "lift": lift_workload,
    "contract": contract_workload,
    "cover": cover_workload,
}

# what one op of ops_per_s is, per workload
OPS = {
    "explore": "agent moves",
    "lift": "agent moves (both twins)",
    "contract": "contractibility verdicts",
    "cover": "vertex maps through both covering definitions",
}

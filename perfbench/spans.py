"""Outside-in span recorder for the traced benchmark pass.

The recorder wraps public functions of binox's modules from outside: src/ is
never edited.  Every module binding of a wrapped function is replaced, so a
caller that imported the name (``from .enumeration import find_candidate``)
and a caller that looks it up at call time (``homotopy.neighbor_moves`` inside
``_search``) both reach the wrapper.  ``restore`` puts every original back.

Three kinds of wrapper:

* span: one record per call (name, layer, start, end, parent, job, self
  time), kept in memory and written out at the end.  Used where calls are
  few enough to keep one record each.
* leaf: calls and total seconds only, for hot functions called hundreds of
  thousands of times per pass.  Their time still counts as child time of the
  enclosing span, so self times stay exact.
* count: calls only (or, for generators, items yielded); no clock reads.

A job span (layer ``bench``) encloses each job of the pass; its self time is
time spent in the benchmark's own code, reported as unattributed.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

perf = time.perf_counter

# Marker set on every wrapper, so a scan can prove none is left installed.
MARK = "__perfbench_wrapped__"


class Tracer:
    def __init__(self) -> None:
        # (id, name, layer, start, end, parent id, job, self seconds)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # open spans: [id, child seconds]
        self._next_id = 0
        self.leaf: dict[str, list] = {}  # name -> [layer, calls, seconds]
        self.counts: dict[str, float] = defaultdict(int)
        self.job: int | None = None
        self.patches: list[tuple] = []  # (module, attr, original)
        self.errors = None  # the binox.errors module the wrappers observe

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[list, list | None]:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, name, layer, t0, t1) -> None:
        self._stack.pop()
        if parent is not None:
            parent[1] += t1 - t0
        self.spans.append((frame[0], name, layer, t0, t1,
                           None if parent is None else parent[0], self.job,
                           t1 - t0 - frame[1]))

    def run_job(self, job_id: int, name: str, fn):
        """Run one job under a root span of layer ``bench``."""
        self.job = job_id
        frame, parent = self._open()
        t0 = perf()
        try:
            return fn()
        finally:
            self._close(frame, parent, name, "bench", t0, perf())
            self.job = None

    def span(self, name: str, layer: str, fn, observe=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame, parent = tracer._open()
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, parent, name, layer, t0, perf())
                if observe is not None:
                    observe(tracer, None, exc)
                raise
            tracer._close(frame, parent, name, layer, t0, perf())
            if observe is not None:
                observe(tracer, out, None)
            return out

        return wrapper

    def timed_leaf(self, name: str, layer: str, fn, observe=None):
        tracer = self
        agg = self.leaf.setdefault(name, [layer, 0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                agg[1] += 1
                agg[2] += dt
                if tracer._stack:
                    tracer._stack[-1][1] += dt
            if observe is not None:
                observe(tracer, out, None)
            return out

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_gen(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, binox_modules: dict) -> None:
        """Wrap every function of PATCHES at every binding in binox."""
        self.errors = binox_modules["binox.errors"]
        for mod_name, attr, kind, name, layer, observe in PATCHES:
            original = getattr(binox_modules[mod_name], attr)
            if kind == "span":
                wrapper = self.span(name, layer, original, observe)
            elif kind == "leaf":
                wrapper = self.timed_leaf(name, layer, original, observe)
            elif kind == "count":
                wrapper = self.counted(name, original)
            else:
                wrapper = self.counted_gen(name, original)
            setattr(wrapper, MARK, True)
            for module in binox_modules.values():
                if module.__dict__.get(attr) is original:
                    self.patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self.patches):
            setattr(module, attr, original)
        self.patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("id", "name", "layer", "start", "end", "parent", "job",
                  "self_s")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(fields, s)) for s in self.spans],
                       "leaf": self.leaf, "counts": dict(self.counts)}, fh)


def leftover_wrappers(binox_modules: dict) -> list[str]:
    """Names of binox module attributes that are still wrappers."""
    return [f"{m.__name__}.{attr}" for m in binox_modules.values()
            for attr, value in vars(m).items() if getattr(value, MARK, False)]


def binox_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "binox" or name.startswith("binox.")}


# -- observers: turn return values into counters --------------------------


def _hit(tracer, out, exc):
    if out is not None:
        tracer.counts["enumeration.candidate_hits"] += 1


def _cycles(tracer, out, exc):
    if exc is None:
        tracer.counts["homotopy.cycles"] += len(out)


def _verdict(tracer, out, exc):
    """Sort one search call into certified, exact negative, no certificate
    or budget verdict."""
    c = tracer.counts
    if isinstance(exc, tracer.errors.SearchBudgetExceeded):
        c["homotopy.budget_verdicts"] += 1
    elif exc is not None:
        return
    elif isinstance(out, list):  # contraction_certificate's move sequence
        c["homotopy.certified"] += 1
        c["homotopy.certificate_moves_max"] = max(
            c["homotopy.certificate_moves_max"], len(out))
    elif out is None:  # contraction_certificate found none (not exact)
        c["homotopy.no_certificate"] += 1
    elif out is False:  # exact A* (or free reduction) negative
        c["homotopy.exact_negatives"] += 1
    else:  # True, or min_contraction_moves' exact count
        c["homotopy.certified"] += 1


def _min_moves(tracer, out, exc):
    if exc is None and out is None:  # exact: no sequence within k
        tracer.counts["homotopy.exact_negatives"] += 1
    else:
        _verdict(tracer, True if exc is None else None, exc)


def _simplices(tracer, out, exc):
    if exc is None:
        tracer.counts["complexes.simplices"] += len(out.simplices)


def _covering(tracer, out, exc):
    tracer.counts["complexes.coverings_found"] += bool(out)


def _agree(tracer, out, exc):
    if isinstance(exc, tracer.errors.EquivalenceViolation):
        tracer.counts["complexes.disagreements"] += 1


def _lifted(tracer, out, exc):
    if exc is None:
        tracer.counts["cover.lifted_vertices"] += out.explored


# (defining module, function, wrapper kind, span name, layer, observer)
PATCHES = (
    ("binox.explorer", "explore", "span", "explorer.explore", "explorer",
     None),
    ("binox.explorer", "lift_check", "span", "explorer.lift_check",
     "explorer", None),
    ("binox.explorer", "agent_digest", "leaf", "explorer.agent_digest",
     "explorer", None),
    ("binox.views", "view_key", "leaf", "views.view_key", "views", None),
    ("binox.views", "fold_graph", "leaf", "views.fold_graph", "views", None),
    ("binox.enumeration", "find_candidate", "span",
     "enumeration.find_candidate", "enumeration", _hit),
    ("binox.enumeration", "edge_sets", "gen", "enumeration.edge_sets_scanned",
     "enumeration", None),
    ("binox.enumeration", "port_assignments", "gen",
     "enumeration.graphs_scanned", "enumeration", None),
    ("binox.homotopy", "all_simple_cycles_k_contractible", "span",
     "homotopy.halting_test", "homotopy", None),
    ("binox.homotopy", "simple_cycles", "span", "homotopy.simple_cycles",
     "homotopy", _cycles),
    ("binox.homotopy", "is_k_contractible", "span", "homotopy.search",
     "homotopy", _verdict),
    ("binox.homotopy", "contraction_certificate", "span", "homotopy.search",
     "homotopy", _verdict),
    ("binox.homotopy", "min_contraction_moves", "span", "homotopy.search",
     "homotopy", _min_moves),
    ("binox.homotopy", "neighbor_moves", "count", "homotopy.states_expanded",
     "homotopy", None),
    ("binox.complexes", "clique_complex", "span", "complexes.clique_complex",
     "complexes", _simplices),
    ("binox.complexes", "is_graph_covering", "leaf",
     "complexes.graph_covering", "complexes", _covering),
    ("binox.complexes", "is_simplicial_covering", "leaf",
     "complexes.simplicial_covering", "complexes", None),
    ("binox.complexes", "coverings_agree", "span", "complexes.coverings_agree",
     "complexes", _agree),
    ("binox.cover", "universal_cover", "span", "cover.universal_cover",
     "cover", _lifted),
    ("binox.cover", "classify", "span", "cover.classify", "cover", None),
    ("binox.cover", "isomorphism", "span", "cover.isomorphism", "cover", None),
    ("binox.cli", "main", "span", "cli.main", "cli", None),
)

LAYERS = ("explorer", "views", "enumeration", "homotopy", "complexes",
          "cover", "cli")


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (values without units)."""
    c = tracer.counts
    span_time: dict[str, float] = defaultdict(float)
    span_calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    for _, name, layer, t0, t1, _, _, own in tracer.spans:
        span_time[name] += t1 - t0
        span_calls[name] += 1
        self_time[layer] += own
    leaf_time = {name: secs for name, (_, _, secs) in tracer.leaf.items()}
    leaf_calls = {name: calls for name, (_, calls, _) in tracer.leaf.items()}
    for layer, _, secs in tracer.leaf.values():
        self_time[layer] += secs

    def ratio(a, b):
        return a / b if b else 0.0

    # outside-in counts taken from return values by the workloads
    moves = c["explorer.moves"]
    move_loop = (self_time_of(tracer, "explorer.explore")
                 + self_time_of(tracer, "explorer.lift_check"))
    digests = leaf_calls.get("explorer.agent_digest", 0)
    digest_s = leaf_time.get("explorer.agent_digest", 0.0)
    searches = span_calls["homotopy.search"]
    search_s = span_time["homotopy.search"]
    states = c["homotopy.states_expanded"]
    develop_s = self_time_of(tracer, "cover.universal_cover")
    m = {
        "explorer.move_loop_s": move_loop,
        "explorer.us_per_move": ratio(move_loop, moves) * 1e6,
        "explorer.moves": moves,
        "explorer.phases": span_calls["enumeration.find_candidate"],
        "explorer.digest_s": digest_s,
        "explorer.digests": digests,
        "explorer.digest_us": ratio(digest_s, digests) * 1e6,
        "explorer.digest_share": ratio(digest_s, wall),
        "views.interned_ids": c["views.interned_ids"],
        "views.fold_graph_calls": leaf_calls.get("views.fold_graph", 0),
        "views.fold_graph_s": leaf_time.get("views.fold_graph", 0.0),
        "enumeration.find_candidate_calls":
            span_calls["enumeration.find_candidate"],
        "enumeration.find_candidate_s":
            span_time["enumeration.find_candidate"],
        "enumeration.find_candidate_share":
            ratio(span_time["enumeration.find_candidate"], wall),
        "enumeration.edge_sets_scanned": c["enumeration.edge_sets_scanned"],
        "enumeration.graphs_scanned": c["enumeration.graphs_scanned"],
        "enumeration.candidate_hit_ratio":
            ratio(c["enumeration.candidate_hits"],
                  span_calls["enumeration.find_candidate"]),
        "homotopy.halting_test_s": span_time["homotopy.halting_test"],
        "homotopy.simple_cycles_s": span_time["homotopy.simple_cycles"],
        "homotopy.cycles": c["homotopy.cycles"],
        "homotopy.search_s": search_s,
        "homotopy.search_share": ratio(search_s, wall),
        "homotopy.searches": searches,
        "homotopy.states_expanded": states,
        "homotopy.states_per_s": ratio(states, search_s),
        "homotopy.states_per_verdict": ratio(states, searches),
        "homotopy.certified": c["homotopy.certified"],
        "homotopy.exact_negatives": c["homotopy.exact_negatives"],
        "homotopy.no_certificates": c["homotopy.no_certificate"],
        "homotopy.budget_verdicts": c["homotopy.budget_verdicts"],
        "homotopy.budget_verdict_ratio":
            ratio(c["homotopy.budget_verdicts"], searches),
        "homotopy.certificate_moves_max": c["homotopy.certificate_moves_max"],
        "complexes.clique_complex_s": span_time["complexes.clique_complex"],
        "complexes.simplices": c["complexes.simplices"],
        "complexes.graph_covering_s":
            leaf_time.get("complexes.graph_covering", 0.0),
        "complexes.simplicial_covering_s":
            leaf_time.get("complexes.simplicial_covering", 0.0),
        "complexes.maps_checked":
            leaf_calls.get("complexes.graph_covering", 0),
        "complexes.coverings_found": c["complexes.coverings_found"],
        "complexes.disagreements": c["complexes.disagreements"],
        "cover.universal_cover_s": span_time["cover.universal_cover"],
        "cover.develop_s": develop_s,
        "cover.audit_s": span_time["cover.universal_cover"] - develop_s,
        "cover.lifted_vertices": c["cover.lifted_vertices"],
        "cover.lifted_per_s": ratio(c["cover.lifted_vertices"], develop_s),
        "cover.isomorphism_s": span_time["cover.isomorphism"],
        "cli.catalog_run_s": span_time["cli.main"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(self_time[la] for la in LAYERS)
    return m


def self_time_of(tracer: Tracer, name: str) -> float:
    return sum(s[7] for s in tracer.spans if s[1] == name)

"""Command-line harness.

Every subcommand prints a deterministic report and exits 0 whenever a
verdict was computed, including negative and budget-exceeded verdicts;
exit 2 means the input could not be used, and exit 1 that stdout was
closed before the report was written.  ``--porcelain`` switches to
stable key=value lines for scripting.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import catalog as cat
from .complexes import clique_complex, coverings_agree
from .config import DEFAULT_BUDGETS, Budgets
from .cover import classify, universal_cover
from .enumeration import canonical_graphs
from .errors import (BinoxError, BudgetExceeded, KernelFault,
                     SearchBudgetExceeded, UsageError)
from .explorer import MOVE_BUDGET, explore, lift_check
from .graphs import (format_graph, format_vertex_map, load_graph,
                     load_vertex_map, save_graph)
from .homotopy import contraction_sequence, is_k_contractible
from .views import ViewInterner, fold_graph, format_view


def _emit(porcelain: bool, pairs: list[tuple[str, object]], human: str) -> None:
    if porcelain:
        for key, value in pairs:
            print(f"{key}={value}")
    else:
        print(human)


def _vertex(g, v: int, option: str) -> int:
    if not 0 <= v < g.n:
        raise UsageError(f"{option} {v} is not a vertex of the "
                         f"{g.n}-vertex graph")
    return v


def _count(text: str) -> int:  # argparse type of counts and budgets
    try:
        value = int(text)
    except ValueError:  # worded as argparse words it for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # main() prints it as one line, exit 2
        raise UsageError(message)


def cmd_explore(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    start = _vertex(g, args.start, "--start")
    out = explore(g, start=start, move_budget=args.max_moves, walk=args.walk)
    cand = out.candidate
    pairs = [
        ("status", out.status),
        ("moves", out.moves),
        ("phases_completed", out.phases_completed),
        ("halt_phase", out.halt_phase if out.halted else "-"),
        ("candidate_vertices", cand.graph.n if cand else "-"),
        ("visited", len(out.visited)),
        ("terrain_vertices", g.n),
    ]
    if out.halted:
        human = (f"halted at phase {out.halt_phase} after {out.moves} moves; "
                 f"candidate has {cand.graph.n} vertices; "
                 f"visited {len(out.visited)}/{g.n} vertices")
    else:
        human = (f"move budget of {args.max_moves} exhausted after "
                 f"{out.phases_completed} completed phases; no halt; "
                 f"visited {len(out.visited)}/{g.n} vertices")
    _emit(args.porcelain, pairs, human)
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    got = classify(g, Budgets(cover_vertices=args.vertex_budget))
    pairs = [
        ("kind", got.kind),
        ("sheets", got.sheets if got.sheets is not None else "-"),
        ("cover_size", got.cover_size if got.cover_size is not None else "-"),
    ]
    if got.kind == "exceeds_budget":
        human = "development exceeded the vertex budget (cover infinite or large)"
    elif got.kind == "simply_connected":
        human = f"simply connected (its own universal cover, {got.cover_size} vertices)"
    else:
        human = (f"finite universal cover: {got.cover_size} vertices, "
                 f"{got.sheets} sheets")
    _emit(args.porcelain, pairs, human)
    return 0


def cmd_ucover(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    res = universal_cover(g, base=_vertex(g, args.base, "--base"),
                          budgets=Budgets(cover_vertices=args.vertex_budget))
    if not res.finite:
        _emit(args.porcelain, [("status", res.status), ("explored", res.explored)],
              f"development exceeded {res.explored} lifted vertices")
        return 0
    pairs = [
        ("status", res.status),
        ("cover_vertices", res.cover.n),
        ("sheets", res.sheets),
    ]
    _emit(args.porcelain, pairs,
          f"finite: {res.cover.n} vertices, {res.sheets} sheets (audited)")
    if args.out:
        save_graph(res.cover, args.out)
    elif not args.porcelain:
        sys.stdout.write(format_graph(res.cover))
    if args.map_out:
        with open(args.map_out, "w", encoding="utf-8") as fh:
            fh.write(format_vertex_map(res.projection))
    return 0


def cmd_cover_check(args: argparse.Namespace) -> int:
    src = load_graph(args.src)
    dst = load_graph(args.dst)
    f = load_vertex_map(args.map, src, dst)
    verdict = coverings_agree(f, src, dst)  # faults if the notions disagree
    pairs = [
        ("graph_covering", str(verdict).lower()),
        ("simplicial_covering", str(verdict).lower()),
        ("agree", "true"),
    ]
    _emit(args.porcelain, pairs,
          f"graph covering: {verdict}; simplicial covering: {verdict}; "
          f"definitions agree")
    return 0


def cmd_contract(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    try:
        loop = tuple(int(x) for x in args.loop.split(","))
    except ValueError:
        raise UsageError(f"--loop {args.loop!r} is not a comma-separated "
                         f"list of vertex numbers") from None
    budgets = Budgets(search_states=args.search_budget)
    cx = clique_complex(g)
    try:
        if args.show_sequence:
            seq = contraction_sequence(loop, cx, args.k, budgets)
            verdict = "contractible" if seq is not None else "not_contractible"
        else:
            seq = None
            verdict = ("contractible"
                       if is_k_contractible(loop, cx, args.k, budgets)
                       else "not_contractible")
    except SearchBudgetExceeded as exc:
        _emit(args.porcelain,
              [("verdict", "search_budget_exceeded"), ("moves", "-"),
               ("what", exc.what), ("cap", exc.cap), ("reached", exc.reached)],
              f"search budget exceeded before a verdict within {args.k} moves "
              f"({exc.what}: {exc.reached} of cap {exc.cap})")
        return 0
    moves = len(seq) if seq is not None else "-"
    pairs = [("verdict", verdict), ("moves", moves)]
    if verdict == "contractible":
        human = f"contractible within {args.k} moves"
        if seq is not None:
            human += f" (minimum {len(seq)})"
    else:
        human = f"not contractible within {args.k} moves"
    _emit(args.porcelain, pairs, human)
    if seq is not None and not args.porcelain:
        for mv, lp in seq:
            data = ",".join(str(x) for x in mv.data)
            print(f"  {mv.kind}@{mv.index}{'(' + data + ')' if data else ''} -> {lp}")
    return 0


def cmd_lift_check(args: argparse.Namespace) -> int:
    cover = load_graph(args.cover)
    base = load_graph(args.base)
    f = load_vertex_map(args.map, cover, base)
    start = _vertex(cover, args.cover_start, "--cover-start")
    rep = lift_check(cover, base, f, cover_start=start,
                     move_budget=args.steps, walk=args.walk)
    pairs = [
        ("ok", str(rep.ok).lower()),
        ("steps_compared", rep.steps_compared),
        ("first_divergence", rep.first_divergence
         if rep.first_divergence is not None else "-"),
        ("base_halted", str(rep.base_run.halted).lower()),
        ("cover_halted", str(rep.cover_run.halted).lower()),
    ]
    if rep.ok:
        human = (f"runs agree for {rep.steps_compared} steps "
                 f"(actions, digests, projected positions)")
    else:
        human = f"runs diverge at step {rep.first_divergence}"
    _emit(args.porcelain, pairs, human)
    return 0


def cmd_view(args: argparse.Namespace) -> int:
    g = load_graph(args.graph)
    v = _vertex(g, args.vertex, "--vertex")
    table = ViewInterner()
    sys.stdout.write(format_view(table, fold_graph(g, v, args.depth, table),
                                 args.depth))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    total = 0
    for n in range(1, args.n_max + 1):
        graphs = canonical_graphs(n)
        total += len(graphs)
        if args.count_only:
            print(f"n={n} count={len(graphs)}")
        else:
            for i, g in enumerate(graphs):
                print(f"# n={n} index={i}")
                sys.stdout.write(format_graph(g))
    if args.count_only:
        print(f"total={total}")
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    for line in cat.verify_catalog():  # write only what verifies
        print(line)
    print("catalog verified")
    if args.action == "write":
        for path in cat.write_catalog(args.dir):
            print(path)
    return 0


def build_parser() -> _Parser:
    ap = _Parser(
        prog="binox",
        description="Explore port graphs with radius-1 sensing; analyze views, "
                    "coverings, loop contraction, and universal covers.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, walk=False):
        p.add_argument("--porcelain", action="store_true",
                       help="stable key=value output")
        if walk:
            p.add_argument("--walk", choices=["full", "nonbacktracking"],
                           default="full")

    p = sub.add_parser("explore", help="run the phased exploring agent")
    p.add_argument("graph")
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--max-moves", type=_count, default=MOVE_BUDGET,
                   help="move budget")
    common(p, walk=True)
    p.set_defaults(func=cmd_explore)

    vertex_budget = dict(type=_count, dest="vertex_budget",
                         default=DEFAULT_BUDGETS.cover_vertices,
                         help="lifted vertex cap")

    p = sub.add_parser("classify", help="bucket a graph by its universal cover")
    p.add_argument("graph")
    p.add_argument("--budget", **vertex_budget)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ucover", help="develop the universal cover")
    p.add_argument("graph")
    p.add_argument("--base", type=int, default=0)
    p.add_argument("--budget", **vertex_budget)
    p.add_argument("--out", metavar="FILE", help="write the cover graph here")
    p.add_argument("--map-out", metavar="FILE", help="write the projection here")
    common(p)
    p.set_defaults(func=cmd_ucover)

    p = sub.add_parser("cover-check", help="test a vertex map for covering")
    p.add_argument("src", help="covering graph file")
    p.add_argument("dst", help="base graph file")
    p.add_argument("map", help="map file (m SRC DST lines)")
    common(p)
    p.set_defaults(func=cmd_cover_check)

    p = sub.add_parser("contract", help="bounded loop contraction")
    p.add_argument("graph")
    p.add_argument("--loop", required=True,
                   help="comma-separated closed vertex walk, e.g. 0,1,2,0")
    p.add_argument("--k", type=_count, required=True, help="move bound")
    p.add_argument("--show-sequence", action="store_true")
    p.add_argument("--search-budget", type=_count,
                   default=DEFAULT_BUDGETS.search_states)
    common(p)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("lift-check", help="compare twin runs on cover and base")
    p.add_argument("cover")
    p.add_argument("base")
    p.add_argument("map", help="projection file, cover vertex -> base vertex")
    p.add_argument("--cover-start", type=int, default=0)
    p.add_argument("--steps", type=_count, default=10**4, help="move budget")
    common(p, walk=True)
    p.set_defaults(func=cmd_lift_check)

    p = sub.add_parser("view", help="print a small view tree")
    p.add_argument("graph")
    p.add_argument("--vertex", type=int, default=0)
    p.add_argument("--depth", type=_count, required=True)
    p.set_defaults(func=cmd_view)

    p = sub.add_parser("enumerate",
                       help="canonical connected port graphs by size")
    p.add_argument("--n-max", type=_count, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("catalog",
                       help="verify the built-in catalog, and write it")
    p.add_argument("action", choices=["run", "write"])
    p.add_argument("--dir", default="catalog", help="output directory for write")
    p.set_defaults(func=cmd_catalog)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)  # exits only for --help
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader left: not bad input, so no error line; stdout goes to
        # devnull so that the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except KernelFault:
        raise  # internal invariant broken; full traceback wanted
    except BudgetExceeded as exc:
        # budgets on subsidiary structures (cliques, cycles) surface as a
        # verdict-style line, still exit 0: the computation answered
        what, cap, reached = ("-" if x is None else x
                              for x in (exc.what, exc.cap, exc.reached))
        _emit(getattr(args, "porcelain", False),
              [("status", "budget_exceeded"), ("what", what), ("cap", cap),
               ("reached", reached)],
              f"budget_exceeded: {exc} ({what}: {reached} of cap {cap})")
        return 0
    except (BinoxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

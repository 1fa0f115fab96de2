"""Run the exploration agent over catalog terrains and tabulate outcomes.

The default set pairs the four terrains whose universal covers are small
enough to halt on with the four that exhaust any budget.  Each phase end
develops the universal cover from the agent's view, so a terrain halts
once its walk reaches the phase above its cover's size: tree7 at phase 8
(94 moves with --walk nonbacktracking, 272,896 with the full walk), the
octahedron at phase 7 with --walk nonbacktracking --budget 30000000, and
the icosahedron at phase 13 after 16,012,798,675,095,050 moves with
--walk nonbacktracking --budget 20000000000000000.  explore folds each walk
subtree it can afford instead of walking it, so budgets of any size run in
the time of the phase-end computations.

Run: python3 scripts/explore_report.py [names...] [--budget N]
     [--walk full|nonbacktracking]
"""

import argparse
import sys
import time

from binox.catalog import graph, names
from binox.explorer import explore

DEFAULT_NAMES = ("p2", "p3", "k3", "k4", "c4", "c5", "c8", "grid3")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", default=list(DEFAULT_NAMES))
    ap.add_argument("--budget", type=int, default=10**6, help="move budget")
    ap.add_argument("--walk", choices=("full", "nonbacktracking"),
                    default="full")
    ap.add_argument("--list", action="store_true",
                    help="list catalog names and exit")
    args = ap.parse_args(argv)
    # checked here, not by choices=: on Python 3.11 choices rejects the
    # default list of a nargs="*" positional
    unknown = [n for n in args.names if n not in names()]
    if unknown:
        ap.error(f"unknown catalog names: {' '.join(unknown)} (see --list)")
    if args.budget < 0:
        ap.error(f"--budget must be >= 0, got {args.budget}")

    if args.list:
        print("\n".join(names()))
        return 0

    # no run moves more than its budget, so the budget is the widest count
    wide = len(str(args.budget))
    header = (f"{'terrain':<12} {'status':<16} {'phase':>5} "
              f"{'moves':>{wide}} {'visited':>8} {'seconds':>8}")
    print(header)
    print("-" * len(header))
    for name in args.names:
        g = graph(name)
        t0 = time.monotonic()
        out = explore(g, move_budget=args.budget, walk=args.walk)
        dt = time.monotonic() - t0
        phase = out.halt_phase if out.halt_phase is not None else "-"
        seen = f"{len(out.visited)}/{g.n}"
        print(f"{name:<12} {out.status:<16} {phase:>5} {out.moves:>{wide}} "
              f"{seen:>8} {dt:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

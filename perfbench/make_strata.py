"""Regenerate contract_strata.json, the cost classes of the contract sample.

    python3 perfbench/make_strata.py

A certificate search's time is heavy-tailed across cycles (0.03 to 80 ms),
so the tail of a plain random sample of cycles, and with it job_ms_p99,
moves a lot from seed to seed.  This script counts, for every closed-lift
rp2 cycle and every icosahedron cycle, the search states the certificate
search expands (calls of neighbor_moves; about 0.95 correlated with its time)
and bins the cycles by quantiles of that count.  The contract workload
samples the same share of every bin, so every seed's sample has the same
cost profile.  The counts are deterministic, so the file does not depend on
the machine.  Takes about two minutes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# quantiles of the state count that separate the classes
EDGES = (0.5, 0.8, 0.9, 0.95, 0.98, 0.99)
ABOUT = ("Cost class (0 = cheapest) of every cycle, in simple_cycles order; "
         "written by make_strata.py")


def classes(counts: list[int]) -> str:
    ordered = sorted(counts)
    cuts = [ordered[int(q * len(ordered))] for q in EDGES]
    return "".join(str(sum(n >= c for c in cuts)) for n in counts)


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    B = run.import_binox()
    H = B.homotopy
    expanded = [0]
    original = H.neighbor_moves

    def counting(*args, **kwargs):
        expanded[0] += 1
        return original(*args, **kwargs)

    H.neighbor_moves = counting
    try:
        out = {"about": ABOUT, "edges": EDGES}
        for kind, cycles, cx in workloads.certificate_populations(B):
            counts = []
            for cyc in cycles:
                expanded[0] = 0
                H.contraction_certificate(cyc, cx,
                                          workloads.CERTIFICATE_MOVES)
                counts.append(expanded[0])
            out[kind] = classes(counts)
    finally:
        H.neighbor_moves = original
    (HERE / "contract_strata.json").write_text(json.dumps(out, indent=1)
                                               + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

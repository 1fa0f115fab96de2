"""Self-test of the benchmark: a reduced-size pass of every workload.

    python3 perfbench/selftest.py

Runs each workload once untraced and once traced, at reduced size, and
checks that

* the metrics printed are exactly those BENCHMARK.json declares, with the
  declared units, and every per-layer metric has its entry in layers.json;
* every operation passed its output check, and every end-to-end value is
  positive;
* no wrapper of the traced pass is left installed in any binox module.

Prints one line per problem and exits 1 if there was any.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import spans
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    mapping = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        problems.append(f"workloads {names} != {sorted(WORKLOADS)}")
    unmapped = set(declared[True]) - set(mapping["per_layer"])
    if unmapped:
        problems.append(f"per-layer metrics missing from layers.json: "
                        f"{sorted(unmapped)}")
    for name in names:
        for trace in (False, True):
            label = f"{name} trace={int(trace)}"
            result, prov = run.run_workload(name, seed=7, seconds=0,
                                            trace=trace, quick=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{label}: metrics {got} != {declared[trace]}")
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of "
                                f"{result['attempted']} operations failed")
            if not trace:
                zero = [k for k, v in result["metrics"].items()
                        if not v["value"] > 0]
                if zero:
                    problems.append(f"{label}: non-positive {zero}")
            left = spans.leftover_wrappers(spans.binox_modules())
            if left:
                problems.append(f"{label}: wrappers left installed: {left}")
            print(f"selftest: {label}: {prov['jobs_per_pass']} jobs, "
                  f"{result['attempted']} checked", flush=True)
    for p in problems:
        print(f"selftest: FAIL {p}")
    if not problems:
        print("selftest: PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

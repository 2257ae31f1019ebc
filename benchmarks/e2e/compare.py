"""Compare two ``BENCH_e2e.json`` files, metric by metric.

    python3 benchmarks/e2e/compare.py <base.json> <new.json>

One row per (workload, end-to-end metric): both medians, the ratio
new/base, and a verdict against the bound in ``BENCHMARK.json``:

* ``ok`` — the new median is no worse than the base's by more than
  the bound (exact metrics: equal);
* ``worse`` — it is (exact metrics: moved in the bad direction);
* ``unresolved`` — either side's own spread (distance between the
  quartiles of its runs over their median) exceeds the bound, so the
  two cannot be told apart — unless every new run beats every base
  run, which is ``ok``; an exact metric that moved in the *good*
  direction is also ``unresolved``: the change must say why.

Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

SPEC = json.loads((Path(__file__).resolve().parent.parent.parent /
                   "BENCHMARK.json").read_text())


def spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0                      # one run: spread unknown
    first, _median, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def verdict(base: List[float], new: List[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_m, new_m = statistics.median(base), statistics.median(new)
    loss = sign * (new_m - base_m) / base_m     # > 0: got worse
    if bound == 0:
        if new_m == base_m and len(set(base + new)) == 1:
            return "ok"
        return "worse" if loss > 0 else "unresolved"
    if max(spread(base), spread(new)) > bound:
        beats_all = max(sign * v for v in new) < min(sign * v
                                                     for v in base)
        return "ok" if beats_all else "unresolved"
    return "worse" if loss > bound else "ok"


def values_of(report: Dict, workload: str, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"]
            for run in report["workloads"][workload]["end_to_end"]]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    print(f"base: {argv[0]} commit {base['stamp']['git_commit'][:12]} "
          f"nproc {base['stamp']['nproc']}")
    print(f"new:  {argv[1]} commit {new['stamp']['git_commit'][:12]} "
          f"nproc {new['stamp']['nproc']}")
    print(f"{'workload':18s} {'metric':22s} {'base':>14s} {'new':>14s} "
          f"{'new/base':>9s} {'runs':>5s}  verdict")
    worse = 0
    for workload in base["workloads"]:
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            a = values_of(base, workload, name)
            b = values_of(new, workload, name)
            result = verdict(a, b, metric["better"], metric["bound"])
            worse += result == "worse"
            base_m, new_m = statistics.median(a), statistics.median(b)
            print(f"{workload:18s} {name:22s} {base_m:14.6g} "
                  f"{new_m:14.6g} {new_m / base_m:9.4f} "
                  f"{len(a)}/{len(b):<3d}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

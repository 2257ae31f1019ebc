"""The request-to-result benchmark.

Two ways in:

* the gated form the driver runs, one workload and one mode per call::

      python3 benchmarks/e2e/run.py --workload edge_cold --seed 1 \\
          --seconds 15 --trace 0

  prints, as its last line, one JSON object with ``correct``,
  ``attempted``, ``failed`` and ``metrics`` (every end-to-end metric
  with ``--trace 0``, every per-layer metric with ``--trace 1``);

* the whole ledger in one command::

      python3 benchmarks/e2e/run.py --seed 1

  runs the four workloads untraced and traced, prints every metric by
  name and unit, and writes ``results/BENCH_e2e.json``.  ``--smoke``
  is the same at a twentieth of the time; ``--self-test`` runs the
  smoke twice and checks the harness itself.

Exits non-zero when any oracle check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import workloads as wl                                  # noqa: E402

SCRUBBED = wl.scrub_env()      # before anything under src/ reads them

import measure                                          # noqa: E402
import oracle as orc                                    # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
RESULTS = HERE / "results"
SMOKE_SECONDS = 0.5


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            scale: wl.Scale = wl.FULL,
            corrupt: bool = False) -> Dict[str, object]:
    """One run of one workload in one mode -> the contract's result
    object, plus ``info`` (op counts, server command line, ...)."""
    oracle = orc.Oracle(corrupt=corrupt)
    if trace:
        import layers
        metrics, attempted, failed, info = layers.run_traced(
            workload, seed, oracle, scale)
    else:
        import device
        import edge
        runner = {"edge_cold": edge.run_edge_cold,
                  "edge_warm": edge.run_edge_warm,
                  "device_first_call": device.run_device_first_call,
                  "exec_steady": device.run_exec_steady}[workload]
        measured = runner(seed, seconds, oracle, scale)
        metrics = measured.end_to_end()
        attempted, failed = measured.attempted, measured.failed
        info = measured.info
    info["oracle_checks"] = oracle.checks
    for failure in oracle.failures[:10]:
        print(f"ORACLE FAILURE: {failure[:400]}", file=sys.stderr)
    return {
        "correct": not oracle.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "info": info,
    }


def declared(kind: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def check_declared(result: Dict[str, object], kind: str) -> None:
    """The printed metrics are exactly the declared ones."""
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared(kind):
        missing = sorted(set(declared(kind)) - set(got))
        extra = sorted(set(got) - set(declared(kind)))
        raise SystemExit(f"metrics differ from BENCHMARK.json {kind}: "
                         f"missing {missing}, undeclared {extra}")


def gated(args) -> int:
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), wl.SMOKE if args.smoke else wl.FULL,
                     corrupt=args.corrupt_oracle)
    check_declared(result, "per_layer" if args.trace else "end_to_end")
    print("# info " + json.dumps(result.pop("info"), default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def gated_run(workload: str, seed: int, seconds: float, trace: bool,
              smoke: bool) -> Dict[str, object]:
    """The gated form in a process of its own — what the driver runs,
    with nothing of an earlier workload in its memory."""
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    started = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("# info "):
        raise SystemExit(f"{' '.join(command)} printed no result")
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2][len("# info "):])
    result["seed"] = seed
    result["wall_s"] = time.perf_counter() - started
    return result


def full(seed: int, seconds: float, smoke: bool, runs: int = 1,
         write: bool = True) -> Tuple[int, Dict[str, object]]:
    """All four workloads, both modes, every metric printed.  The
    untraced run is made ``runs`` times, on seeds ``seed``,
    ``seed + 1``, ..., so that ``compare.py`` can tell a difference
    from the spread; the traced run once, on ``seed``."""
    scale = wl.SMOKE if smoke else wl.FULL
    report = {"bench": "e2e", "smoke": smoke, "run_seconds": seconds,
              "scale": dataclasses.asdict(scale),
              "stamp": measure.stamp(seed, SCRUBBED), "workloads": {}}
    ok = True
    for workload in wl.WORKLOADS:
        entry = {"end_to_end": [], "per_layer": None}
        for index in range(runs + 1):
            traced = index == runs
            result = gated_run(workload, seed if traced else seed + index,
                               seconds, traced, smoke)
            ok = ok and result["correct"]
            if traced:
                entry["per_layer"] = result
            else:
                entry["end_to_end"].append(result)
            for name, metric in result["metrics"].items():
                print(f"{workload:18s} {name:34s} "
                      f"{metric['value']:>16.6g} {metric['unit']}")
        report["workloads"][workload] = entry
    if write:
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / ("BENCH_e2e_smoke.json" if smoke
                          else "BENCH_e2e.json")
        path.write_text(json.dumps(report, indent=1, sort_keys=True,
                                   default=str) + "\n")
        print(f"wrote {path.relative_to(HERE.parent.parent)}")
    print("oracle:", "every check passed" if ok else "FAILED")
    return (0 if ok else 1), report


EXACT = [m["name"] for m in SPEC["end_to_end"] if m["bound"] == 0]


def self_test(seed: int) -> int:
    """Smoke twice: schema valid, every declared name printed, exact
    metrics identical, and a corrupted expectation is noticed."""
    reports = []
    for _ in range(2):
        code, report = full(seed, SMOKE_SECONDS, smoke=True, write=False)
        if code:
            print("self-test: smoke run failed")
            return 1
        reports.append(report)
    for workload in wl.WORKLOADS:
        first, second = (r["workloads"][workload]["end_to_end"][0]
                         for r in reports)
        for result in (first, second):
            assert set(result) >= {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["attempted"] >= 1 and result["failed"] == 0
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b or a <= 0:
                print(f"self-test: {workload} {name} not exact: {a} {b}")
                return 1
    # a deliberately wrong expectation must fail the run
    poisoned = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "exec_steady", "--seed", str(seed), "--seconds",
         str(SMOKE_SECONDS), "--trace", "0", "--smoke",
         "--corrupt-oracle"],
        capture_output=True, text=True)
    if poisoned.returncode == 0:
        print("self-test: corrupted oracle went unnoticed")
        return 1
    print("self-test: ok")
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (full form)")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test(args.seed)
    if args.workload:
        return gated(args)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    return full(args.seed, seconds, args.smoke, args.runs)[0]


if __name__ == "__main__":
    raise SystemExit(main())

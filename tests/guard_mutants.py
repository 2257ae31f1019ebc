"""Guard mutants: every clause of a counted loop's guard is needed.

A counted tier-2 loop (``repro.tiers.Tier2Writer.counted``) runs with
no per-trip fuel compare, exit test, bounds check or wrap, because one
guard at loop entry (``repro.counted.CountedLoop.guard``) proves what
they would have checked; a fold (``repro.counted.fold_of``) skips every
trip but the last.  Each row of :data:`MUTANTS` is one edit of
``src/repro/counted.py`` that drops a conjunct of that guard, or makes
the fold's eligibility test always true.  For each row the script
copies ``src/`` to a temporary directory, applies the edit (its
snippet must occur exactly once) and runs
``tests/test_counted_loops.py`` against the copy.  A mutant the
tests pass on *survived*: the test file cannot tell the guard without
that clause from the real one.

    python tests/guard_mutants.py            # every row
    python tests/guard_mutants.py fuel type  # the rows named

Prints one line per row (killed or survived, the seconds the run took
and the first test that failed) and exits non-zero if any mutant
survived or any snippet did not match exactly once.  Standard library
only; pytest and hypothesis must be importable, as for the test
suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("repro", "counted.py")
TESTS = os.path.join("tests", "test_counted_loops.py")

#: name -> (snippet of ``src/repro/counted.py``, its replacement)
MUTANTS = {
    "type": (
        'checks = [f"type({name}) is int"\n'
        '                  for name in dict.fromkeys(named) '
        'if name.isidentifier()]',
        "checks = []"),
    "0 <= iv": (
        'checks += [f"0 <= {iv}", f"{bound} <= {I32_LIMIT - step}"]',
        'checks += [f"{bound} <= {I32_LIMIT - step}"]'),
    "bound": (
        'checks += [f"0 <= {iv}", f"{bound} <= {I32_LIMIT - step}"]',
        'checks += [f"0 <= {iv}"]'),
    "base range": (
        'checks += [f"0 <= {name} < {BASE_LIMIT}" for name in leaned]',
        "pass"),
    "fuel": (
        'checks.append(f"executed + (_n := {trips} if {bound} > {iv} "\n'
        '                      f"else 0) * {period} + {hlen} <= fuel")',
        'checks.append(f"(_n := {trips} if {bound} > {iv} else 0) >= 0")'),
    "address low": (
        'pairs += [f"{NULL_GUARD} <= {low}", f"{high} <= _ms{width}"]',
        'pairs += [f"{high} <= _ms{width}"]'),
    "address high": (
        'pairs += [f"{NULL_GUARD} <= {low}", f"{high} <= _ms{width}"]',
        'pairs += [f"{NULL_GUARD} <= {low}"]'),
    "mask low": (
        'pairs += [f"{lo} <= {low}", f"{high} <= {hi}"]',
        'pairs += [f"{high} <= {hi}"]'),
    "mask high": (
        'pairs += [f"{lo} <= {low}", f"{high} <= {hi}"]',
        'pairs += [f"{lo} <= {low}"]'),
    "fold accumulator range": (
        'checks.append(f"{ty.int_min(fold.acc_ty)} <= {fold.acc} <= "\n'
        '                          f"{ty.int_max(fold.acc_ty)}")',
        "pass"),
    "fold eligible": (
        'eligible = not refused and known.get(acc) == ("acc", acc) \\\n'
        '        and access.aff.scale * induction.step == access.width',
        "eligible = True"),
}


def mutate(src: str, snippet: str, replacement: str) -> None:
    """Apply one edit to the copy of ``src/`` at ``src``."""
    path = os.path.join(src, TARGET)
    with open(path) as handle:
        text = handle.read()
    count = text.count(snippet)
    if count != 1:
        raise SystemExit(f"snippet matches {count} times, not once:\n"
                         f"{snippet}")
    with open(path, "w") as handle:
        handle.write(text.replace(snippet, replacement))


def killer(name: str) -> str:
    """The first test of ``tests/test_counted_loops.py`` that fails on
    the mutant, or ``""``."""
    snippet, replacement = MUTANTS[name]
    with tempfile.TemporaryDirectory() as scratch:
        src = os.path.join(scratch, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        mutate(src, snippet, replacement)
        env = {**os.environ, "PYTHONPATH": src,
               "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q",
             "-p", "no:cacheprovider", TESTS],
            cwd=ROOT, env=env, capture_output=True, text=True)
    if run.returncode not in (0, 1):
        raise SystemExit(f"{name}: pytest exited {run.returncode}\n"
                         f"{run.stdout}{run.stderr}")
    failed = [line[len("FAILED "):].split(" - ", 1)[0]
              for line in run.stdout.splitlines()
              if line.startswith("FAILED ")]
    return failed[0].split("::", 1)[1] if failed else ""


def main(argv) -> int:
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        raise SystemExit(f"no such mutant: {', '.join(unknown)}")
    survivors = []
    for name in names:
        start = time.perf_counter()
        test = killer(name)
        if not test:
            survivors.append(name)
        print(f"{name:<24} {'killed' if test else 'SURVIVED':<9} "
              f"{time.perf_counter() - start:5.1f} s  {test}", flush=True)
    print(f"{len(names) - len(survivors)} of {len(names)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

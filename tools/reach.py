"""Reach census: which lines of ``src/repro`` the tier-1 suite runs.

Runs the tier-1 suite (``python -m pytest -q tests``, under fixed
hash and hypothesis seeds) with a line
tracer installed in every Python process it starts: the pytest process
itself, the threads it starts, the workers a ``ProcessPoolExecutor``
forks and the ``python`` subprocesses a test launches (a
``sitecustomize`` on their ``PYTHONPATH`` installs the same tracer).
A line counts as executable when a code object compiled from its file
has an instruction on it (``co_lines()``), not counting the
``RESUME`` prologue a call never reports a line event for.

    python tools/reach.py           # run the census, rewrite REACH.json
    python tools/reach.py --check   # run it, compare with REACH.json

``REACH.json`` holds one row per function of ``src/repro`` with lines
the suite does not reach, keyed by ``<file>::<qualified name>``; each
line is recorded by its text (not its number) with the reason it may
stay unreached, one of :data:`REASONS`.  A rewrite keeps the reason a
line already had and guesses one for a new line only where the rule is
mechanical (a bench driver, a CLI, an abstract stub); a line left with
no reason makes the rewrite exit 1 until one is written in by hand.

``--check`` writes nothing.  It exits 1 when any function has more
unreached lines than the ledger records, or a ledger line has no
valid reason, and it lists the rows that can shrink.  Either mode
exits 1 if the suite itself fails: the census of a failing run proves
nothing.  Standard library only; pytest and hypothesis must be
importable, as for the test suite.  The traced suite runs about four
times slower than the plain one.
"""

from __future__ import annotations

import atexit
import collections
import dis
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
LEDGER = os.path.join(ROOT, "REACH.json")

#: why a line may stay unreached by tier-1
REASONS = {
    # runs only in a process the census cannot record: a worker killed
    # mid-job, or the server of a benchmark that tier-1 does not start
    "child-process",
    # argument parsing and printing of a console entry point
    "cli",
    # experiment drivers run by ``benchmarks/``, not by ``tests/``
    "bench-driver",
    # an abstract method's ``raise NotImplementedError``
    "abstract",
    # a trap or fallback arm kept so that every engine traps alike,
    # which no program the suite builds reaches
    "trap-parity",
}

_OUT_ENV = "REACH_CENSUS_DIR"


# -- the tracer (runs inside every traced process) -----------------------

def _prologue_lines(code):
    """Lines only the call prologue (up to ``RESUME``) sits on."""
    end = 0
    for instr in dis.get_instructions(code):
        if instr.opname == "RESUME":
            end = instr.offset + 2
            break
    inside, outside = set(), set()
    for start, _, line in code.co_lines():
        if line is not None:
            (inside if start < end else outside).add(line)
    return inside - outside


def executable_lines(code):
    """Lines of ``code`` itself (not of the code objects it makes)
    that a run of it reports a line event for."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    return lines - _prologue_lines(code)


class _Tracer:
    """Records, per code object of ``src/repro``, the lines not yet
    seen; a code object all of whose lines were seen is no longer
    traced, so the hot, fully reached paths run untraced."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.prefix = PACKAGE + os.sep
        #: code -> set of lines not yet seen, or None when not ours
        self.remaining = {}
        self.codes = {}

    def _classify(self, code):
        path = os.path.abspath(code.co_filename)
        if not path.startswith(self.prefix):
            self.remaining[code] = None
            return None
        lines = executable_lines(code)
        self.codes[code] = (path, lines)
        rem = self.remaining[code] = set(lines)
        return rem

    def trace(self, frame, event, arg):
        code = frame.f_code
        try:
            rem = self.remaining[code]
        except KeyError:
            rem = self._classify(code)
        if not rem:
            return None
        discard = rem.discard

        def local(frame, event, arg):
            if event == "line":
                discard(frame.f_lineno)
            return local
        return local

    def dump(self) -> None:
        seen = collections.defaultdict(set)
        for code, (path, lines) in list(self.codes.items()):
            hit = lines - self.remaining[code]
            if hit:
                seen[path] |= hit
        name = os.path.join(self.out_dir, f"{os.getpid()}-{id(self)}.json")
        with open(name, "w") as f:
            json.dump({p: sorted(s) for p, s in seen.items()}, f)

    def forget(self) -> None:
        """In a forked child: start from nothing, keep tracing."""
        self.remaining = {}
        self.codes = {}


def install(out_dir: str) -> None:
    """Trace this process from here on, and dump what it saw when it
    exits, however it exits short of a signal."""
    tracer = _Tracer(out_dir)
    sys.settrace(tracer.trace)
    threading.settrace(tracer.trace)
    atexit.register(tracer.dump)
    real_exit = os._exit

    def dumping_exit(code):
        # a forked multiprocessing worker leaves through os._exit,
        # which skips atexit
        try:
            tracer.dump()
        finally:
            real_exit(code)

    def after_fork():
        tracer.forget()
        os._exit = dumping_exit
    os.register_at_fork(after_in_child=after_fork)

    # a subprocess started with an ``env`` of its own keeps the tracer
    real_init = subprocess.Popen.__init__

    def popen_init(self, *args, env=None, **kwargs):
        if env is not None:
            env = dict(env)
            paths = env.get("PYTHONPATH", "").split(os.pathsep)
            if _SITE_DIR not in paths:
                env["PYTHONPATH"] = os.pathsep.join(
                    [_SITE_DIR] + [p for p in paths if p])
            env[_OUT_ENV] = out_dir
        real_init(self, *args, env=env, **kwargs)
    subprocess.Popen.__init__ = popen_init


_SITE_DIR = os.environ.get("REACH_CENSUS_SITE", "")

_SITECUSTOMIZE = f"""\
import importlib.util, os
_spec = importlib.util.spec_from_file_location(
    "_reach_census", {os.path.abspath(__file__)!r})
_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_mod)
_mod.install(os.environ[{_OUT_ENV!r}])
"""


# -- the census (runs in the parent) -------------------------------------

def _owners(path: str):
    """line -> (qualified name, depth) of the innermost code object of
    ``path`` that has an instruction on that line."""
    with open(path) as f:
        text = f.read()
    owners = {}
    stack = [(compile(text, path, "exec"), 0)]
    while stack:
        code, depth = stack.pop()
        for line in executable_lines(code):
            if line not in owners or owners[line][1] < depth:
                owners[line] = (code.co_qualname, depth)
        stack.extend((const, depth + 1) for const in code.co_consts
                     if hasattr(const, "co_lines"))
    return owners, text.splitlines()


def run_suite(out_dir: str) -> int:
    """Tier-1 under the tracer; the suite's exit status."""
    site = tempfile.mkdtemp(prefix="reach-site-")
    try:
        with open(os.path.join(site, "sitecustomize.py"), "w") as f:
            f.write(_SITECUSTOMIZE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in [site, SRC, env.get("PYTHONPATH", "")] if p)
        env[_OUT_ENV] = out_dir
        env["REACH_CENSUS_SITE"] = site
        # fixed seeds: the lines a generated example reaches must not
        # change from one census to the next
        env["PYTHONHASHSEED"] = "0"
        return subprocess.call(
            [sys.executable, "-m", "pytest", "-q", "-p",
             "no:cacheprovider", "--hypothesis-seed=0", "tests"],
            cwd=ROOT, env=env)
    finally:
        shutil.rmtree(site, ignore_errors=True)


def census(out_dir: str):
    """``(rows, files)``: ``rows`` maps ``<file>::<qualname>`` to the
    texts of its unreached lines, ``files`` maps a file to ``[unreached,
    executable]``."""
    seen = collections.defaultdict(set)
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name)) as f:
            for path, lines in json.load(f).items():
                seen[path].update(lines)
    rows, files = {}, {}
    for dirpath, _, names in sorted(os.walk(PACKAGE)):
        for name in sorted(names):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, SRC).replace(os.sep, "/")
            owners, source = _owners(path)
            missed = sorted(set(owners) - seen[path])
            files[rel] = [len(missed), len(owners)]
            for line in missed:
                key = f"{rel}::{owners[line][0]}"
                rows.setdefault(key, []).append(source[line - 1].strip())
    return rows, files


def default_reason(key: str, text: str):
    path, qualname = key.split("::")
    if path.startswith("repro/bench/"):
        return "bench-driver"
    if text.startswith("raise NotImplementedError"):
        return "abstract"
    if path.endswith("/cli.py") or qualname.split(".")[0] in (
            "main", "_main"):
        return "cli"
    return None


def with_reasons(rows, ledger):
    """Ledger rows for ``rows``: a line keeps the reason the ledger
    gives the same text in the same function."""
    out = {}
    for key, texts in sorted(rows.items()):
        known = collections.defaultdict(list)
        for entry in ledger.get(key, []):
            known[entry["line"]].append(entry["reason"])
        out[key] = [{"line": text,
                     "reason": (known[text].pop(0) if known[text]
                                else default_reason(key, text))}
                    for text in texts]
    return out


def load_ledger():
    if not os.path.exists(LEDGER):
        return {"functions": {}}
    with open(LEDGER) as f:
        return json.load(f)


def unreasoned(functions):
    return [(key, e["line"]) for key, entries in functions.items()
            for e in entries if e.get("reason") not in REASONS]


def check(rows, ledger) -> int:
    functions = ledger["functions"]
    status = 0
    for key in sorted(set(rows) | set(functions)):
        now, was = len(rows.get(key, [])), len(functions.get(key, []))
        if now > was:
            status = 1
            recorded = collections.Counter(
                e["line"] for e in functions.get(key, []))
            fresh = collections.Counter(rows[key]) - recorded
            print(f"GREW   {key}: {was} -> {now} unreached")
            for text in fresh.elements():
                print(f"         {text}")
        elif now < was:
            print(f"SHRINK {key}: {was} -> {now} unreached")
    for key, text in unreasoned(functions):
        status = 1
        print(f"NO REASON {key}: {text}")
    return status


def main(argv) -> int:
    if argv not in ([], ["--check"]):
        print(__doc__.split("\n\n")[2], file=sys.stderr)
        return 2
    out_dir = tempfile.mkdtemp(prefix="reach-")
    try:
        status = run_suite(out_dir)
        if status:
            print(f"the suite failed (exit {status}): no census",
                  file=sys.stderr)
            return 1
        rows, files = census(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    ledger = load_ledger()
    unreached = sum(m for m, _ in files.values())
    executable = sum(n for _, n in files.values())
    print(f"{unreached} of {executable} executable lines unreached")
    if argv == ["--check"]:
        return check(rows, ledger)
    functions = with_reasons(rows, ledger.get("functions", {}))
    with open(LEDGER, "w") as f:
        json.dump({"unreached": unreached, "executable": executable,
                   "files": {k: v for k, v in files.items() if v[0]},
                   "functions": functions}, f, indent=1)
        f.write("\n")
    missing = unreasoned(functions)
    for key, text in missing:
        print(f"NO REASON {key}: {text}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

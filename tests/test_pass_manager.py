"""``PassManager`` skips a pass that could only confirm: the rule, its
premise and its accounting, with the oracle written here.

The rule (``repro.opt.pass_manager``): a pass whose last invocation
reported no change, on a function nothing has changed since, is not
invoked.  It is exact if a pass is a function of the IR and "no change
reported" means "nothing mutated"; the second premise is tested below
for every registered pass, the first by comparing each run with a loop
that skips nothing.
"""

from __future__ import annotations

import pytest

from repro.core import offline_compile
from repro.ir.printer import format_function
from repro.jit.frontend import decode_function
from repro.jit.peephole import fold_cast_chains, quick_cleanup
from repro.opt import (
    PassManager, PassResult, PassStats, cleanup_passes, pass_table,
    standard_passes,
)
from repro.opt.pass_manager import MAX_ROUNDS
from tests.support import corpus_sources, lower_checked

SOURCES = corpus_sources()

ARTIFACTS = {name: offline_compile(source, name)
             for name, source in SOURCES.items()}

PIPELINES = {"standard": standard_passes, "cleanup": cleanup_passes}


def inputs(name):
    """``(label, pipeline, make)`` for one program: each of its IR
    functions under both offline pipelines, and each function of both
    bytecode flavours decoded and cleaned as the ``online-only`` JIT
    hands it to the standard pipeline.  ``make()`` builds the function
    afresh, so two runs never share an object."""
    def ir(func_name):
        return next(func for func in lower_checked(SOURCES[name])
                    if func.name == func_name)

    def lir(flavour, func_name):
        module = getattr(ARTIFACTS[name], flavour)
        func = decode_function(module[func_name], module.functions)[0]
        quick_cleanup(func)
        return func

    for func in lower_checked(SOURCES[name]):
        for label in PIPELINES:
            yield (f"{func.name}/{label}", PIPELINES[label],
                   lambda f=func.name: ir(f))
    for flavour in ("bytecode", "scalar_bytecode"):
        for bc_func in getattr(ARTIFACTS[name], flavour):
            yield (f"{bc_func.name}/{flavour}", standard_passes,
                   lambda v=flavour, f=bc_func.name: lir(v, f))


def every_pass_every_round(func, passes):
    """The oracle: no memory, no skipping.  Returns the rounds taken,
    the last of which changed nothing."""
    rounds = 0
    while True:
        rounds += 1
        changed = [fn(func).changed for _, fn in passes]
        if not any(changed):
            return rounds


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_run_equals_a_loop_that_skips_nothing(name):
    for label, pipeline, make in inputs(name):
        skipping, plain = make(), make()
        stats = PassManager(pipeline(), verify=True).run(skipping)
        rounds = every_pass_every_round(plain, pipeline())
        assert format_function(skipping) == format_function(plain), label
        assert skipping.reg_count == plain.reg_count, label
        # The cap is never what ends a run (a truncated fixed point
        # would be silent): the oracle's rounds are the manager's.
        assert stats.runs == rounds < MAX_ROUNDS, label


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_invocation_can_only_confirm(name):
    """Counted from outside: each pass function is wrapped to note the
    printed IR it is handed; it is never handed the text on which it
    last reported no change."""
    invoked = unskipped = 0
    for label, pipeline, make in inputs(name):
        func = make()
        clean_text = {}

        def watched(fn):
            def run(func):
                text = format_function(func)
                assert clean_text.get(fn) != text, (label, fn.__name__)
                result = fn(func)
                if not result.changed:
                    clean_text[fn] = text
                return result
            return run

        wrappers = {fn: watched(fn) for _, fn in pipeline()}
        stats = PassManager([(pass_name, wrappers[fn])
                             for pass_name, fn in pipeline()]).run(func)
        invoked += len(stats.records)
        unskipped += stats.runs * len(pipeline())
    # what the parent's manager invoked, a whole round to confirm
    # included, against what is left (corpus: 4 992 against 2 828)
    assert invoked < 0.7 * unskipped


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_change_reported_means_nothing_mutated(name):
    """The premise, for every registered pass and the JIT's cast
    peephole, along the trajectory each input takes to its fixed
    point: an invocation that reports ``changed == False`` leaves the
    printed IR and ``reg_count`` as they were."""
    quiet = 0
    passes = [*pass_table().items(), ("fold-casts", fold_cast_chains)]
    for label, _, make in inputs(name):
        func = make()
        for _ in range(MAX_ROUNDS):
            changed = False
            for pass_name, fn in passes:
                before = format_function(func), func.reg_count
                result = fn(func)
                if result.changed:
                    changed = True
                    continue
                quiet += 1
                assert (format_function(func), func.reg_count) \
                    == before, (label, pass_name)
            if not changed:
                break
    assert quiet >= len(passes)


class TestStatsOfASkippedPass:
    def counted(self, script):
        """A pass that reports ``changed`` as the next item of
        ``script`` says and counts its invocations."""
        calls = []

        def fn(func):
            calls.append(len(calls))
            return PassResult(changed=script[len(calls) - 1], work=3)
        return fn, calls

    def test_skipped_pass_leaves_no_record(self):
        func = lower_checked("int f(int a) { return a; }")["f"]
        once, once_calls = self.counted([True, False])
        never, never_calls = self.counted([False] * 4)
        manager = PassManager([("once", once), ("never", never),
                               ("never.2", never)])
        stats = manager.run(func)
        # round one: once changes, never finds nothing, never.2 is
        # skipped (same function, nothing changed since); round two:
        # once finds nothing, never is skipped twice
        assert [r.name for r in stats.records] == ["once", "never", "once"]
        assert (len(once_calls), len(never_calls)) == (2, 1)
        assert stats.runs == 2                  # rounds, not invocations
        assert stats.total_work == 9
        assert "never.2" not in stats.summary_dict()

    def test_a_change_in_between_reinstates_the_pass(self):
        func = lower_checked("int f(int a) { return a; }")["f"]
        quiet, quiet_calls = self.counted([False] * 4)
        loud, _ = self.counted([True, False])
        PassManager([("quiet", quiet), ("loud", loud),
                     ("quiet.2", quiet)]).run(func)
        # quiet, loud (changes), quiet.2 runs again; round two: quiet
        # is covered by quiet.2, loud finds nothing, quiet.2 skipped
        assert len(quiet_calls) == 2

    def test_summary_round_trips(self):
        for name in ("saxpy_fp", "mat4"):
            func = next(iter(lower_checked(SOURCES[name])))
            stats = PassManager(standard_passes()).run(func)
            summary = stats.summary_dict()
            assert sum(row["runs"] for row in summary.values()) \
                == len(stats.records)
            revived = PassStats.from_summary(summary)
            assert revived.summary_dict() == summary
            assert revived.total_work == stats.total_work
            assert PassStats().merge(revived).summary_dict() == summary
            assert "runs" in stats.report().splitlines()[0]

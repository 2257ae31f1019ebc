"""Byte-level fuzzing of the module decoder, verifier and lint gate.

The admission pipeline must be a total function over arbitrary bytes:
a hypothesis-mutated encoding is either rejected *structurally* (the
decoder raises one of its documented rejection errors), rejected by
the verifier/analysis gate (error-severity findings), or it decodes
into a module every engine executes with at most a ``TrapError`` —
never an uncontrolled Python exception, and never an engine
disagreement.  The seed corpus is the bundled workload kernels, so
mutations start from realistic, vectorized, multi-function modules.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import lint_bytecode_module
from repro.bytecode.encode import decode_module, encode_module
from repro.core import offline_compile
from repro.engine import FAST, REFERENCE, TIER2
from repro.semantics import Memory, TrapError
from repro.vm import VM
from repro.workloads import ALL_KERNELS
from tests.support import DECODE_REJECTIONS

ENGINES = (FAST, TIER2, REFERENCE)
FUEL = 200
MEMORY_BYTES = 1 << 16



def _corpus():
    encoded = []
    for name in sorted(ALL_KERNELS)[:4]:
        kernel = ALL_KERNELS[name]
        artifact = offline_compile(kernel.source, name)
        encoded.append(encode_module(artifact.bytecode))
    return encoded


CORPUS = _corpus()


def _default_args(func):
    """Zero-ish arguments per parameter tag; ``None`` skips vector
    parameters (no scalar spelling to synthesize)."""
    args = []
    for tag in func.param_types:
        if tag.startswith("v128:"):
            return None
        args.append(0.0 if tag in ("f32", "f64") else 0)
    return args


def _observe(module, func, engine):
    memory = Memory(MEMORY_BYTES)
    vm = VM(module, memory=memory, engine=engine, fuel=FUEL)
    try:
        value = vm.call(func.name, _default_args(func))
        return ("ok", repr(value), vm.instructions_executed)
    except TrapError as exc:
        return ("trap", str(exc), vm.instructions_executed)


@given(
    index=st.integers(min_value=0, max_value=len(CORPUS) - 1),
    edits=st.lists(
        st.tuples(st.integers(min_value=0, max_value=1 << 30),
                  st.integers(min_value=0, max_value=255)),
        min_size=1, max_size=8),
)
@settings(derandomize=True, deadline=None, max_examples=150)
def test_mutated_modules_rejected_or_run_with_trap_parity(index, edits):
    raw = bytearray(CORPUS[index])
    for offset, byte in edits:
        raw[offset % len(raw)] = byte

    try:
        module = decode_module(bytes(raw))
    except DECODE_REJECTIONS:
        return                          # structurally rejected: fine

    findings = lint_bytecode_module(module)
    if any(f.severity == "error" for f in findings):
        return                          # gate rejected: fine

    # Admitted: every function must run on all three engines with at
    # most a trap, and the engines must observe the same thing.
    for func in module.functions.values():
        if _default_args(func) is None:
            continue
        outcomes = {engine: _observe(module, func, engine)
                    for engine in ENGINES}
        oracle = outcomes[REFERENCE]
        for engine, observed in outcomes.items():
            assert observed == oracle, (
                f"{engine} diverges from reference on mutated "
                f"{func.name}:\n  {engine}: {observed}\n"
                f"  reference: {oracle}")


def test_unmutated_corpus_is_admitted():
    """Sanity: the seed corpus itself decodes clean and gate-passes
    (so the fuzz property above isn't vacuously testing rejection)."""
    for raw in CORPUS:
        module = decode_module(raw)
        findings = lint_bytecode_module(module)
        assert not any(f.severity == "error" for f in findings)

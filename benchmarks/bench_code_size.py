"""Experiment S2a — §2.1 claim [15]: bytecode is a compact
program representation.

Encoded PVI instruction bytes vs generated native code bytes (incl.
per-function prologue/epilogue) for the whole kernel corpus.  Expected
shape: smaller than fixed-width RISC encodings, comparable to
variable-length x86 (which is famously dense — the original study [15]
compared against ARM-class embedded targets).

A second table says what the shipped knowledge costs: the encoded
bytes of every annotation kind the vectorized flavour carries, beside
the instruction bytes they describe.
"""

from collections import Counter

import pytest

from repro.bench import format_table
from repro.bench.experiments import run_code_size
from repro.bytecode.annotations import encode_annotation
from repro.bytecode.encode import encode_module, encoded_code_size
from repro.core import offline_compile
from repro.workloads import ALL_KERNELS

from conftest import register_report

KINDS = ("RegAlloc", "HWRequirement", "LaneFacts")


@pytest.fixture(scope="module")
def annotation_rows():
    """Per kernel, over the vectorized flavour: instruction bytes,
    encoded bytes per annotation kind, whole encoded module."""
    rows = []
    for name, kernel in ALL_KERNELS.items():
        module = offline_compile(kernel.source, name).bytecode
        sizes = Counter()
        for annotation in module.annotations:
            out = bytearray()
            encode_annotation(out, annotation)
            kind = type(annotation).__name__.removesuffix("Annotation")
            sizes[kind] += len(out)
        assert set(sizes) <= set(KINDS), sizes
        rows.append((name, sum(encoded_code_size(f) for f in module),
                     *(sizes[kind] for kind in KINDS),
                     len(encode_module(module))))
    return rows


@pytest.fixture(scope="module")
def size_rows(annotation_rows):
    rows = run_code_size()
    body = [(r.kernel, r.pvi_bytes, r.native.get("x86"),
             r.native.get("sparc"), r.native.get("ppc"))
            for r in rows]
    totals = ("TOTAL",
              sum(r.pvi_bytes for r in rows),
              sum(r.native.get("x86", 0) for r in rows),
              sum(r.native.get("sparc", 0) for r in rows),
              sum(r.native.get("ppc", 0) for r in rows))
    table = format_table(
        ["kernel", "PVI bytes", "x86", "sparc", "ppc"],
        body + [totals],
        title="Code size — portable bytecode vs native (bytes)")
    shipped_total = ("TOTAL", *(sum(column) for column
                                in list(zip(*annotation_rows))[1:]))
    table += "\n\n" + format_table(
        ["kernel", "instructions", *KINDS, "module"],
        annotation_rows + [shipped_total],
        title="Shipped knowledge — annotation bytes per kind, "
              "vectorized flavour (bytes)")
    register_report("code_size", table)
    return rows


def test_annotations_cost_less_than_the_code_they_describe(
        annotation_rows):
    for name, instructions, *kinds, module in annotation_rows:
        assert sum(kinds) < instructions < module, name


class TestCompactness:
    def test_smaller_than_every_risc_target(self, size_rows):
        total_pvi = sum(r.pvi_bytes for r in size_rows)
        for target in ("sparc", "ppc"):
            total_native = sum(r.native[target] for r in size_rows)
            assert total_pvi < total_native, target

    def test_comparable_to_x86(self, size_rows):
        total_pvi = sum(r.pvi_bytes for r in size_rows)
        total_x86 = sum(r.native["x86"] for r in size_rows)
        assert total_pvi < 1.4 * total_x86

    def test_majority_of_kernels_beat_risc(self, size_rows):
        wins = sum(1 for r in size_rows
                   if r.pvi_bytes < r.native["sparc"])
        assert wins >= len(size_rows) * 2 // 3


def test_bench_size_measurement(benchmark, size_rows):
    rows = benchmark.pedantic(run_code_size, rounds=1, iterations=1)
    assert rows

"""Seeded input generators for the four e2e workloads.

Everything the program under test sees is made here from ``--seed``;
the program never sees the seed itself.  Each workload is an endless
stream of *cycles*: one cycle visits every entry of the workload's
fixed census (the cross product the workload is meant to cover) once,
in an order the seed shuffles.  A fixed census keeps the operation mix
— and with it the modeled numbers summed over one cycle — identical on
every seed, while order, module identity, zipf draws and array
contents all vary with the seed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.lang import types as ty
from repro.semantics import Memory
from repro.targets.registry import target_names
from repro.workloads import ALL_KERNELS, REGALLOC_CORPUS, Kernel, KernelRun

WORKLOADS = ("edge_cold", "edge_warm", "device_first_call", "exec_steady")

#: split : online-only = 3 : 1, as one cycle of four draws
FLOW_MIX = ("split", "split", "split", "online-only")

#: element count of a ``device_first_call`` run
DEVICE_N = 64
STEADY_MACHINES = ("vm", "x86", "sparc", "arm")

#: kernel families for the ``.vec/.reduce/.scalar`` MIPS splits
FAMILIES = {
    "vec": ("vecadd_fp", "saxpy_fp", "dscal_fp"),
    "reduce": ("max_u8", "sum_u8", "sum_u16", "sdot", "minmax_i32"),
    "scalar": ("fir", "prefix_sum", "histogram"),
}



@dataclass(frozen=True)
class Scale:
    """How much work a run does.  ``FULL`` is what is gated and
    recorded; ``SMOKE`` is roughly a twentieth of it, for the
    self-test."""
    #: resident modules of ``edge_warm``
    pool: int
    #: census of ``edge_cold``: the first shapes of the pool.  Half the
    #: pool, so that a run of a dozen seconds repeats every shape
    #: often enough for its best latency to be a floor
    cold_census: int
    #: ``edge_warm`` has no census (zipf draws over the pool); its
    #: server CPU is read every this many operations
    warm_segment: int
    #: element count of an ``exec_steady`` call
    steady_n: int
    #: times the program's set-up is run (``setup_s`` is their median)
    setup_repeats: int
    #: traced replay: census cycles of the in-process workloads,
    #: ``edge_warm`` operations, and fan-outs per probe
    replay_cycles: int
    warm_replay: int
    probes: int


FULL = Scale(pool=32, cold_census=16, warm_segment=1000, steady_n=4096,
             setup_repeats=3, replay_cycles=3, warm_replay=2000, probes=8)
SMOKE = Scale(pool=8, cold_census=4, warm_segment=100, steady_n=512,
              setup_repeats=1, replay_cycles=1, warm_replay=100, probes=2)

#: the module shapes are part of the benchmark, not of a run
_SHAPE_SEED = 20100613


def scrub_env() -> List[str]:
    """Remove every ``PVI_*`` variable (engine, OSR and bench knobs
    would change what is measured); returns the names removed."""
    scrubbed = sorted(name for name in os.environ
                      if name.startswith("PVI_"))
    for name in scrubbed:
        del os.environ[name]
    return scrubbed


def steady_n(kernel_name: str, scale: Scale) -> int:
    """``fir`` runs an 8-tap inner loop per element, so it gets an
    eighth of the elements to cost about the same."""
    return scale.steady_n // 8 if kernel_name == "fir" \
        else scale.steady_n


# -- register-pressure corpus as runnable kernels ----------------------------

def _ints(rng: random.Random, n: int, lo: int, hi: int) -> List[int]:
    return [rng.randrange(lo, hi) for _ in range(n)]


def _poly8_inputs(memory: Memory, n: int, seed: int) -> KernelRun:
    rng = random.Random(seed)
    c = memory.alloc_array(ty.I32, _ints(rng, 8, -9, 9))
    xs = memory.alloc_array(ty.I32, _ints(rng, n, -99, 99))
    return KernelRun(args=[c, xs, n])


def _stats_inputs(memory: Memory, n: int, seed: int) -> KernelRun:
    rng = random.Random(seed)
    a = memory.alloc_array(ty.I32, _ints(rng, n, -999, 999))
    return KernelRun(args=[a, n])


def _butterfly_inputs(memory: Memory, n: int, seed: int) -> KernelRun:
    rng = random.Random(seed)
    re = memory.alloc_array(ty.I32, _ints(rng, n, -99, 99))
    im = memory.alloc_array(ty.I32, _ints(rng, n, -99, 99))
    return KernelRun(args=[re, im, n],
                     outputs=[(ty.I32, re, n), (ty.I32, im, n)])


def _checksum_inputs(memory: Memory, n: int, seed: int) -> KernelRun:
    rng = random.Random(seed)
    data = memory.alloc_array(ty.U8, _ints(rng, n, 0, 256))
    return KernelRun(args=[data, n])


def _mat4_inputs(memory: Memory, n: int, seed: int) -> KernelRun:
    rng = random.Random(seed)
    a = memory.alloc_array(ty.I32, _ints(rng, 16, -9, 9))
    b = memory.alloc_array(ty.I32, _ints(rng, 16, -9, 9))
    c = memory.alloc_array(ty.I32, [0] * 16)
    return KernelRun(args=[a, b, c], outputs=[(ty.I32, c, 16)])


_CORPUS_INPUTS = {"poly8": _poly8_inputs, "stats": _stats_inputs,
                  "butterfly": _butterfly_inputs,
                  "checksum": _checksum_inputs, "mat4": _mat4_inputs}

#: every function an edge module may contain, with an input builder
#: so the oracle can execute it
EDGE_FUNCTIONS: Dict[str, Kernel] = dict(ALL_KERNELS)
for _name, _source in REGALLOC_CORPUS.items():
    EDGE_FUNCTIONS[_name] = Kernel(
        name=_name, source=_source, entry=_name, category="regalloc",
        elem="i32", vectorizable=False,
        make_inputs=_CORPUS_INPUTS[_name])


# -- edge modules ------------------------------------------------------------

@dataclass(frozen=True)
class ModuleShape:
    """What an edge module is made of, apart from its identity."""
    functions: Tuple[str, ...]          # 1-3 names from EDGE_FUNCTIONS
    targets: Tuple[str, ...]            # 3 of the registered targets
    flow: str


def _make_shapes() -> Tuple[ModuleShape, ...]:
    rng = random.Random(_SHAPE_SEED)
    names = sorted(EDGE_FUNCTIONS)
    targets = sorted(target_names())
    return tuple(
        ModuleShape(functions=tuple(rng.sample(names, rng.randint(1, 3))),
                    targets=tuple(rng.sample(targets, 3)),
                    flow=FLOW_MIX[index % len(FLOW_MIX)])
        for index in range(FULL.pool))


SHAPES = _make_shapes()


def compose(shape: ModuleShape, pad: int) -> Dict[str, object]:
    """One ``/deploy`` body: the shape's sources plus a ``pad_<id>``
    function, so the artifact key is one the server has never seen.
    The pad has a fixed width and body: only the *name* differs, so
    modeled work and code size do not depend on it."""
    source = "\n".join(EDGE_FUNCTIONS[name].source
                       for name in shape.functions)
    source += f"\nint pad_{pad & 0xffffffff:08x}(int x) {{ return x + 1; }}\n"
    return {"source": source, "name": f"mod_{pad & 0xffffffff:08x}",
            "targets": list(shape.targets), "flow": shape.flow}


def _cycles(census: int, rng: random.Random) -> Iterator[int]:
    """Endless census indexes, one shuffled cycle after another."""
    order = list(range(census))
    while True:
        rng.shuffle(order)
        yield from order


def edge_cold_ops(seed: int, scale: Scale) \
        -> Iterator[Tuple[int, Dict[str, object]]]:
    """(shape index, request body) for ever; no body repeats."""
    rng = random.Random(seed)
    base = (seed & 0xfff) << 20
    for serial, index in enumerate(_cycles(scale.cold_census, rng)):
        yield index, compose(SHAPES[index], base + serial)


def edge_warm_pool(seed: int, scale: Scale) -> List[Dict[str, object]]:
    """The resident modules, by shape index."""
    base = ((seed & 0xfff) << 20) | 0xf0000
    return [compose(shape, base + index)
            for index, shape in enumerate(SHAPES[:scale.pool])]


def edge_warm_ops(seed: int, scale: Scale) -> Iterator[int]:
    """Pool indexes drawn zipf(s=1); which module holds which rank is
    the seed's choice."""
    rng = random.Random(seed)
    ranked = list(range(scale.pool))
    rng.shuffle(ranked)
    weights = [1.0 / rank for rank in range(1, scale.pool + 1)]
    while True:
        yield from rng.choices(ranked, weights=weights, k=1024)


# -- device-side ops ---------------------------------------------------------

#: every kernel on every target once, one pair in four ``online-only``
#: (both flows reach every kernel and every target).  A fixed
#: assignment rather than a draw per run, so a cycle is the same work
#: on every seed and short enough to fit dozens into a run.
DEVICE_CENSUS: Tuple[Tuple[str, str, str], ...] = tuple(
    (kernel, target, FLOW_MIX[(k_index + t_index) % len(FLOW_MIX)])
    for k_index, kernel in enumerate(ALL_KERNELS)
    for t_index, target in enumerate(sorted(target_names())))

STEADY_CENSUS: Tuple[Tuple[str, str], ...] = tuple(
    (kernel, machine)
    for kernel in ALL_KERNELS for machine in STEADY_MACHINES)


def device_ops(seed: int) -> Iterator[int]:
    """Indexes into :data:`DEVICE_CENSUS`, cycle after cycle."""
    return _cycles(len(DEVICE_CENSUS), random.Random(seed))


def steady_ops(seed: int) -> Iterator[int]:
    """Indexes into :data:`STEADY_CENSUS`, cycle after cycle."""
    return _cycles(len(STEADY_CENSUS), random.Random(seed))

"""Experiment harness.

Each ``run_*`` function reproduces one artifact of the paper's
evaluation (see DESIGN.md §4 for the experiment index) and returns
structured rows; :mod:`repro.bench.tables` renders them in the paper's
layout.  The pytest-benchmark suite under ``benchmarks/`` and the
EXPERIMENTS.md report both drive these functions.
"""

from repro.bench.tables import format_table
from repro.bench.paperdata import PAPER_TABLE1_RELATIVE
from repro.bench.experiments import (
    default_kpn_platforms, run_code_size, run_iterative,
    run_jit_budget, run_kpn, run_split_flow, run_split_regalloc,
    run_table1,
)

__all__ = [
    "format_table", "PAPER_TABLE1_RELATIVE",
    "run_table1", "run_split_flow", "run_split_regalloc",
    "run_code_size", "run_iterative", "run_kpn", "run_jit_budget",
    "default_kpn_platforms",
]

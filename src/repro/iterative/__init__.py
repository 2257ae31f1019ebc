"""Iterative compilation (§4, first direction).

"Iterative compilation avoids the intrinsic limitations of
profitability models" — instead of predicting whether an optimization
helps, *run* each candidate configuration and measure.  The paper
suggests virtual machine monitors as the natural engine for this
adaptive tuning; here the offline compiler plays that role, searching
per (kernel, target) and shipping the winner as bytecode.
"""

from repro.iterative.search import (
    Configuration, SearchResult, default_configuration, evaluate,
    hill_climb, random_search, search_space,
)

__all__ = [
    "Configuration", "SearchResult", "default_configuration",
    "evaluate", "random_search", "hill_climb",
    "search_space",
]

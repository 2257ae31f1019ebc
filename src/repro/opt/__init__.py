"""Offline optimization passes over the mid-level IR.

``cleanup_passes()`` is the canonicalizing pipeline (run before any
pattern-matching pass), ``standard_passes()`` the -O2-like default used
by the offline compiler, to which the vectorizer is appended by
:mod:`repro.core.offline`.

Passes are addressable *by name* through :func:`resolve_passes` so a
pipeline can be described as data (a tuple of names) — the form
:class:`repro.flows.PipelineSpec` stores and the flow registry, the
artifact cache and the iterative search all share.  A ``.N`` suffix
(``"cse.2"``) names a repeated invocation of the same pass.
"""

from typing import Iterable, List, Tuple

from repro.registry import UnknownNameError
from repro.opt.pass_manager import (
    PassManager, PassRecord, PassResult, PassStats, PassSummary,
)
from repro.opt.constfold import constfold
from repro.opt.copyprop import copyprop
from repro.opt.dce import dce
from repro.opt.simplify_cfg import simplify_cfg
from repro.opt.cse import cse
from repro.opt.strength import strength_reduce

__all__ = [
    "PassManager", "PassResult", "PassStats", "PassRecord", "PassSummary",
    "constfold", "copyprop", "dce", "simplify_cfg", "cse",
    "strength_reduce",
    "cleanup_passes", "standard_passes",
    "pass_table", "resolve_passes", "UnknownPassError",
    "CLEANUP_PASS_NAMES", "STANDARD_PASS_NAMES",
]

#: the canonicalizing prefix every pipeline starts from
CLEANUP_PASS_NAMES: Tuple[str, ...] = (
    "constfold", "copyprop", "cse", "dce", "simplify-cfg",
)

#: the -O2-like scalar pipeline of the offline compiler
STANDARD_PASS_NAMES: Tuple[str, ...] = (
    "constfold", "copyprop", "cse", "dce", "simplify-cfg",
    "if-convert", "licm", "strength",
    "constfold.2", "copyprop.2", "cse.2", "dce.2", "simplify-cfg.2",
)


def pass_table():
    """name -> pass function, for every registered IR pass."""
    from repro.opt.licm import licm
    from repro.opt.ifconvert import if_convert

    return {
        "constfold": constfold,
        "copyprop": copyprop,
        "cse": cse,
        "dce": dce,
        "simplify-cfg": simplify_cfg,
        "if-convert": if_convert,
        "licm": licm,
        "strength": strength_reduce,
    }


class UnknownPassError(UnknownNameError):
    """A pass name :func:`resolve_passes` does not know."""
    what = "pass"


def resolve_passes(names: Iterable[str]) -> List[tuple]:
    """Turn pass names into the ``[(name, fn)]`` list PassManager runs.

    ``"cse.2"`` resolves to the ``cse`` pass but keeps its suffixed
    name, so repeated invocations stay distinguishable in the stats.
    """
    table = pass_table()
    resolved = []
    for name in names:
        base = name.rsplit(".", 1)[0] if "." in name else name
        if base not in table:
            raise UnknownPassError(name, sorted(table))
        resolved.append((name, table[base]))
    return resolved


def cleanup_passes():
    """Canonicalization: run before pattern-matching passes."""
    return resolve_passes(CLEANUP_PASS_NAMES)


def standard_passes():
    """The -O2-like scalar pipeline of the offline compiler."""
    return resolve_passes(STANDARD_PASS_NAMES)

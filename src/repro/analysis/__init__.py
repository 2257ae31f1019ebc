"""PVI static-analysis plane: dataflow solver, proven facts, lint.

The offline half of the paper's split owns verification and expensive
analysis; this package is that plane for the grown system.  It builds
fuel-block CFGs (:mod:`~repro.analysis.cfg`), drives a generic
worklist solver (:mod:`~repro.analysis.solver`) through the concrete
passes (:mod:`~repro.analysis.passes`), and publishes the results
where their consumer finds them: the VM tier-2 lane table as a
bytecode annotation, the simulator's and the lint plane's as
cacheable :class:`~repro.analysis.facts.FunctionFacts` — plus a
lint/admission layer (:mod:`~repro.analysis.lint`) the compilation
service gates deployments through, with a ``pvi-lint`` CLI
(:mod:`~repro.analysis.cli`) on top.

Import discipline: this package may import ``repro.engine``,
``repro.bytecode.*`` and ``repro.semantics.*`` but never the engines
(``repro.vm.threaded``, ``repro.targets.dispatch``) — they import us.
"""

from repro.analysis.cfg import BlockCFG
from repro.analysis.facts import (
    FACTS_SCHEMA, FactsTable, FunctionFacts, bytecode_facts,
    machine_facts, module_facts,
)
from repro.analysis.lint import (
    AdmissionError, LintFinding, check_admission, lint_artifact,
    lint_bytecode_module,
)
from repro.analysis.solver import solve_backward, solve_forward

__all__ = [
    "BlockCFG", "FACTS_SCHEMA", "FactsTable", "FunctionFacts",
    "bytecode_facts", "machine_facts", "module_facts",
    "AdmissionError", "LintFinding", "check_admission",
    "lint_artifact", "lint_bytecode_module",
    "solve_backward", "solve_forward",
]

"""Deploy-time lint over proven facts: findings, severities, the gate.

The admission contract (used by ``CompilationService`` and the
``pvi-lint`` CLI):

* ``error`` — the module is unsound: the verifier rejected it, or the
  analysis plane could not even build a block graph.  The service
  refuses to deploy (:class:`AdmissionError`).
* ``warn`` — deployable but suspicious: unreachable blocks, memory
  accesses proven to land in the null guard page (they trap on every
  execution), branch conditions proven constant.
* ``info`` — hygiene notes: dead stores.  Never gates anything;
  surfaced only by the CLI.

Findings are plain data (picklable, ``as_dict`` for JSON) and carry
the pc so the CLI can render them against ``disasm.py`` context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.facts import FunctionFacts, module_facts
from repro.bytecode.verifier import BytecodeVerifyError, verify_module

SEVERITIES = ("error", "warn", "info")


@dataclass
class LintFinding:
    severity: str                   # "error" | "warn" | "info"
    code: str                       # stable machine-readable slug
    function: str
    pc: Optional[int]               # None for module-level findings
    message: str

    def as_dict(self) -> Dict:
        return {"severity": self.severity, "code": self.code,
                "function": self.function, "pc": self.pc,
                "message": self.message}

    def __str__(self) -> str:
        where = self.function if self.pc is None \
            else f"{self.function}:{self.pc}"
        return f"{self.severity}[{self.code}] {where}: {self.message}"


class AdmissionError(Exception):
    """Deployment refused: the artifact has error-severity findings."""

    def __init__(self, name: str, findings: List[LintFinding]):
        self.findings = findings
        errors = [f for f in findings if f.severity == "error"]
        lines = "; ".join(str(f) for f in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        super().__init__(
            f"artifact {name!r} failed admission lint: {lines}{more}")


def _function_findings(facts: Optional[FunctionFacts],
                       name: str) -> List[LintFinding]:
    if facts is None:
        return [LintFinding(
            "error", "analysis-failed", name, None,
            "the dataflow plane could not analyze this function")]
    found: List[LintFinding] = []
    for leader in facts.dead_blocks():
        found.append(LintFinding(
            "warn", "dead-block", name, leader,
            f"block at pc {leader} is unreachable from entry"))
    for pc, kind, message in facts.range_notes:
        severity = "warn" if kind == "null-access" else "info"
        found.append(LintFinding(severity, kind, name, pc, message))
    for pc, local in facts.dead_stores:
        found.append(LintFinding(
            "info", "dead-store", name, pc,
            f"store to local {local} is never read"))
    return found


def lint_bytecode_module(module) -> List[LintFinding]:
    """All findings for a ``BytecodeModule``, verifier first: an
    unverifiable module gets exactly one ``error`` finding and no
    dataflow findings (facts over ill-typed code prove nothing)."""
    try:
        verify_module(module)
    except BytecodeVerifyError as exc:
        return [LintFinding("error", "verify", module.name, None,
                            str(exc))]
    table = module_facts(module)
    found: List[LintFinding] = []
    for name in module.functions:
        found.extend(_function_findings(table.get(name), name))
    order = {severity: rank for rank, severity in enumerate(SEVERITIES)}
    found.sort(key=lambda f: (order[f.severity], f.function, f.pc or 0))
    return found


def linted(artifact) -> Optional[List[LintFinding]]:
    """The findings :func:`lint_artifact` memoized on ``artifact``, or
    ``None`` if it was never linted (looks, never lints)."""
    return getattr(artifact, "_pvi_lint_findings", None)


def lint_artifact(artifact) -> List[LintFinding]:
    """Findings for an ``OfflineArtifact``, memoized on the artifact
    (the gate may see the same artifact once per deploy target)."""
    cached = linted(artifact)
    if cached is not None:
        return cached
    findings = lint_bytecode_module(artifact.bytecode)
    artifact._pvi_lint_findings = findings
    return findings


def check_admission(artifact) -> List[LintFinding]:
    """Gate an artifact: raise :class:`AdmissionError` on any
    ``error`` finding, else return the (possibly empty) findings for
    the caller to surface."""
    findings = lint_artifact(artifact)
    if any(f.severity == "error" for f in findings):
        raise AdmissionError(artifact.name, findings)
    return findings

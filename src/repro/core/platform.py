"""Heterogeneous platform model and deployment manager.

A :class:`Platform` is a set of cores of different kinds (host
microcontroller, big x86-ish core, DSP accelerator...).  The
:class:`DeploymentManager` installs *one* bytecode module across all of
them — one JIT invocation per core *kind*, not per application build —
which is the paper's whole-platform-programmability story: third-party
bytecode can run on the DSP because the DSP's JIT, not the vendor
toolchain, produces its native code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.bytecode.annotations import HWRequirementAnnotation
from repro.bytecode.module import BytecodeModule
from repro.core.offline import OfflineArtifact
from repro.core.online import deploy, select_bytecode
from repro.flows import Flow, as_flow
from repro.targets.machine import TargetDesc
from repro.targets.registry import Targetish, as_target


@dataclass
class Core:
    """A group of identical cores.

    ``target`` is a descriptor or a registered target name — a
    platform is a composition of registered targets, so
    ``Core("dsp", 2)`` works and an unknown name raises the unified
    ``UnknownTargetError`` at construction, not mid-deployment.
    """
    target: Targetish
    count: int = 1

    def __post_init__(self):
        self.target = as_target(self.target)

    @property
    def name(self) -> str:
        return self.target.name


@dataclass
class Platform:
    """A heterogeneous multicore system-on-chip."""
    name: str
    cores: List[Core] = field(default_factory=list)

    def kinds(self) -> List[TargetDesc]:
        return [core.target for core in self.cores]

    def core_list(self) -> List[TargetDesc]:
        """One entry per physical core."""
        out: List[TargetDesc] = []
        for core in self.cores:
            out.extend([core.target] * core.count)
        return out


class DeploymentManager:
    """Installs one application (bytecode) on every core kind.

    Given a :class:`~repro.service.CompilationService` it installs
    through the service instead: all core kinds are JIT-compiled
    concurrently and every image is memoized, so re-installing the
    same artifact (or installing it on an overlapping platform) reuses
    the images instead of recompiling.
    """

    def __init__(self, platform: Platform,
                 flow: Union[str, Flow] = "split", service=None):
        self.platform = platform
        self.flow = as_flow(flow)
        self.service = service
        self.installed: Dict[str, object] = {}
        self._bytecode: Optional[BytecodeModule] = None

    def install(self, source: Union[OfflineArtifact, BytecodeModule]) \
            -> Dict[str, object]:
        """JIT the module once per core kind; returns the images."""
        self.installed = {}
        if self.service is not None and isinstance(source, OfflineArtifact):
            self.installed = dict(self.service.deploy_many(
                source, self.platform.kinds(), self.flow))
        else:
            for target in self.platform.kinds():
                if target.name not in self.installed:
                    self.installed[target.name] = deploy(source, target,
                                                         self.flow)
        if isinstance(source, OfflineArtifact):
            self._bytecode = select_bytecode(source, self.flow)
        else:
            self._bytecode = source
        return self.installed

    def image_for(self, target: Targetish):
        target = as_target(target)
        return self.installed[target.name]

    def preferred_core(self, function: str) -> Optional[TargetDesc]:
        """Use HW-requirement annotations to suggest a core kind.

        A SIMD-hungry function prefers a SIMD core; an FP-hungry one
        prefers a core with a fast FPU; control code stays on the
        host.  Purely advisory — the KPN mapper uses measured costs,
        falling back to this hint for unprofiled actors.
        """
        if self._bytecode is None:
            return None
        annotations = self._bytecode.annotations_for(
            function, HWRequirementAnnotation)
        if not annotations:
            return None
        wants = annotations[0]
        candidates = self.platform.kinds()
        if wants.wants_simd:
            simd = [t for t in candidates if t.has_simd]
            if simd:
                return max(simd, key=lambda t: t.clock_scale)
        if wants.wants_fp:
            return min(candidates, key=lambda t: t.costs.fp_mul /
                       t.clock_scale)
        return min(candidates, key=lambda t: t.costs.branch /
                   t.clock_scale)

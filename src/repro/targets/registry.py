"""First-class target registry: processors and backends as data.

The paper's claim is that one virtualized bytecode deploys across a
*heterogeneous* catalog of processors.  This module makes the catalog
an open axis, mirroring :mod:`repro.flows`: a
:class:`~repro.registry.Registry` holds
:class:`~repro.targets.machine.TargetDesc` entries by name, and every
layer — ``core.online`` / ``core.platform``, ``compare_flows``,
the compilation service, the KPN mapper, the iterative search and the
experiment harness — resolves targets through it.  Adding a processor
is one :func:`register_target` call; it is immediately deployable,
schedulable and cacheable, with no edits anywhere else.

The second half is the :class:`Backend` protocol.  What used to be
implicit convention — "compile with the JIT, execute with the
simulator" — is now an object a target names by its ``backend``
field, with two methods:

* :meth:`Backend.compile` — the codegen entry point (bytecode +
  target + flow -> executable image);
* :meth:`Backend.executor` — construct an executor for an image
  (something with ``run(name, args) -> SimulationResult``).

The models a backend charges against are the target's own
``target.costs`` / ``target.sizes``, and the executor's engine builds
its predecode lazily on the first run.

The built-in :class:`NativeBackend` is the register-machine JIT +
cycle simulator pipeline; :mod:`repro.targets.stackvm` registers a
second, structurally different backend (a wasm32-style stack machine
whose codegen skips register allocation entirely), proving a backend
can be added without touching ``repro`` internals.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.registry import Registry, UnknownNameError
from repro.targets.machine import TargetDesc

Targetish = Union[str, TargetDesc]


class UnknownTargetError(UnknownNameError):
    """A target name that is not registered."""
    what = "target"


class UnknownBackendError(UnknownNameError):
    """A backend name that is not registered."""
    what = "backend"


# ---------------------------------------------------------------------------
# the backend protocol
# ---------------------------------------------------------------------------

class Backend:
    """What a target's toolchain must provide.

    Subclass and override :meth:`compile` and :meth:`executor`.  An
    image returned by :meth:`compile` must expose the accounting
    surface the service and ``compare_flows`` read: ``target_name``,
    ``functions`` (values carrying ``jit_time``), ``total_code_bytes``,
    ``total_jit_work``, ``total_jit_analysis_work`` and
    ``total_jit_pass_work``.  The executor returned by
    :meth:`executor` must expose ``run(name, args)`` returning a
    :class:`~repro.targets.simulator.SimulationResult`-compatible
    object (``value``, ``cycles``, ``instructions``).
    """

    #: the name targets reference via ``TargetDesc.backend``
    name = "backend"

    def compile(self, bytecode, target: TargetDesc, flow):
        """Codegen entry point: bytecode module -> executable image."""
        raise NotImplementedError

    def executor(self, image, memory=None, *, fuel: Optional[int] = None,
                 engine: Optional[str] = None):
        """Construct an executor ready to ``run(name, args)``."""
        raise NotImplementedError


class NativeBackend(Backend):
    """The default toolchain: register-machine JIT + cycle simulator.

    This is the paper's online half verbatim — decode to LIR,
    optional online analyses, scalarize, allocate, emit — packaged
    behind the protocol so non-default backends are peers, not
    special cases.  Imports are deferred: the JIT itself resolves
    targets through this registry.
    """

    name = "native"

    def compile(self, bytecode, target: TargetDesc, flow):
        from repro.jit.compiler import JITCompiler
        return JITCompiler(target, flow.jit).compile_module(bytecode)

    def executor(self, image, memory=None, *, fuel: Optional[int] = None,
                 engine: Optional[str] = None):
        from repro.targets.simulator import DEFAULT_FUEL, Simulator
        return Simulator(image, memory,
                         fuel=DEFAULT_FUEL if fuel is None else fuel,
                         engine=engine)


# ---------------------------------------------------------------------------
# the registries
# ---------------------------------------------------------------------------

def _check_backend(target: TargetDesc) -> None:
    """A target is registered only under a registered backend."""
    if target.backend not in BACKENDS:
        raise UnknownBackendError(target.backend, BACKENDS.names())


#: the process-wide registries every layer resolves targets through
REGISTRY = Registry(TargetDesc, UnknownTargetError, _check_backend)
BACKENDS = Registry(Backend, UnknownBackendError)

BACKENDS.register(NativeBackend())


def register_target(target: TargetDesc,
                    replace: bool = False) -> TargetDesc:
    """Register a target globally; it is immediately deployable via
    the service, comparable in ``compare_flows``, schedulable by the
    KPN mapper and addressable by name everywhere."""
    return REGISTRY.register(target, replace=replace)


def unregister_target(name: str) -> None:
    REGISTRY.unregister(name)


def as_target(target: Targetish) -> TargetDesc:
    """Accept either a registered name or a TargetDesc object (every
    public entry point's contract)."""
    return REGISTRY.get(target)


def target_names() -> Tuple[str, ...]:
    return REGISTRY.names()


def registered_targets() -> Tuple[TargetDesc, ...]:
    return REGISTRY.values()


def register_backend(backend: Backend, replace: bool = False) -> Backend:
    """Register a backend; targets reference it by ``backend=name``."""
    return BACKENDS.register(backend, replace=replace)


def get_backend(name: Union[str, Backend]) -> Backend:
    return BACKENDS.get(name)


def backend_names() -> Tuple[str, ...]:
    return BACKENDS.names()


def backend_for(target: Targetish) -> Backend:
    """The backend a target's descriptor names."""
    return BACKENDS.get(as_target(target).backend)


def executor_for(image, memory=None, *, fuel: Optional[int] = None,
                 engine: Optional[str] = None):
    """Construct the right executor for a compiled image.

    An image that names its builder (``image.backend_name``, which
    every non-native backend's image should carry) gets that backend
    directly — registered or not.  Otherwise the image's
    ``target_name`` resolves through the registry; images of
    unregistered plain targets (ad-hoc descriptors built with
    ``dataclasses.replace``, hand-assembled test modules) fall back
    to the native backend, which is what produced them.
    """
    backend_name = getattr(image, "backend_name", None)
    if backend_name is not None:
        backend = BACKENDS.get(backend_name)
    else:
        try:
            backend = backend_for(image.target_name)
        except (UnknownTargetError, AttributeError):
            backend = BACKENDS.get(NativeBackend.name)
    return backend.executor(image, memory, fuel=fuel, engine=engine)


# ---------------------------------------------------------------------------
# the built-in catalog
# ---------------------------------------------------------------------------

def _register_builtin_targets() -> None:
    from repro.targets import catalog
    for target in catalog.TARGETS.values():
        REGISTRY.register(target, replace=True)


_register_builtin_targets()

"""First-class target registry: processors and backends as data.

The paper's claim is that one virtualized bytecode deploys across a
*heterogeneous* catalog of processors.  This module makes the catalog
an open axis, mirroring :mod:`repro.flows`: a :class:`TargetRegistry`
holds :class:`~repro.targets.machine.TargetDesc` entries by name, and
every layer — ``core.online`` / ``core.platform``, ``compare_flows``,
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

import threading
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.targets.machine import TargetDesc

Targetish = Union[str, TargetDesc]


class UnknownTargetError(KeyError, ValueError):
    """Raised by every entry point handed a target name that is not
    registered; the message lists what *is* registered.

    Subclasses both :class:`KeyError` (what raw catalog lookups used
    to raise, so legacy ``except KeyError`` call sites keep working)
    and :class:`ValueError` (matching ``UnknownFlowError`` ergonomics).
    """

    def __init__(self, name: object, known: Tuple[str, ...]):
        self.target_name = name
        self.known = known
        message = (f"unknown target {name!r}; registered targets: "
                   f"{', '.join(known) if known else '(none)'}")
        ValueError.__init__(self, message)

    def __str__(self) -> str:          # KeyError would repr() the args
        return self.args[0]


class UnknownBackendError(KeyError, ValueError):
    """A target names a backend that is not registered."""

    def __init__(self, name: object, known: Tuple[str, ...]):
        self.backend_name = name
        self.known = known
        message = (f"unknown backend {name!r}; registered backends: "
                   f"{', '.join(known) if known else '(none)'}")
        ValueError.__init__(self, message)

    def __str__(self) -> str:
        return self.args[0]


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

class _Registry:
    """Thread-safe name -> object map (insertion-ordered).

    Shared machinery of the target and backend registries: subclasses
    set ``kind`` (the registered type, passed through :meth:`get`
    untouched) and ``what`` (for messages), and override
    :meth:`_validate` / :meth:`_missing`.
    """

    kind: type = object
    what: str = "entry"

    def __init__(self):
        self._entries: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _validate(self, entry) -> None:
        """Registration-time check; raise to reject the entry."""

    def _missing(self, name) -> Exception:
        raise NotImplementedError

    def register(self, entry, replace: bool = False):
        if not isinstance(entry, self.kind):
            raise TypeError(f"expected a {self.kind.__name__}, "
                            f"got {type(entry).__name__}")
        self._validate(entry)
        with self._lock:
            if not replace and entry.name in self._entries:
                raise ValueError(f"{self.what} {entry.name!r} is "
                                 f"already registered "
                                 f"(pass replace=True)")
            self._entries[entry.name] = entry
        return entry

    def unregister(self, name: str) -> None:
        with self._lock:
            self._entries.pop(name, None)

    def get(self, name):
        if isinstance(name, self.kind):
            return name
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise self._missing(name)
        return entry

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._entries)

    def values(self) -> Tuple:
        with self._lock:
            return tuple(self._entries.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator:
        return iter(self.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class TargetRegistry(_Registry):
    """Thread-safe name -> :class:`TargetDesc` map (insertion-ordered)."""

    kind = TargetDesc
    what = "target"

    def _validate(self, target: TargetDesc) -> None:
        if target.backend not in BACKENDS:
            raise UnknownBackendError(target.backend, BACKENDS.names())

    def _missing(self, name) -> Exception:
        return UnknownTargetError(name, self.names())

    def targets(self) -> Tuple[TargetDesc, ...]:
        return self.values()


class BackendRegistry(_Registry):
    """Thread-safe name -> :class:`Backend` map."""

    kind = Backend
    what = "backend"

    def _missing(self, name) -> Exception:
        return UnknownBackendError(name, self.names())


#: the process-wide registries every layer resolves targets through
REGISTRY = TargetRegistry()
BACKENDS = BackendRegistry()

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
    return REGISTRY.targets()


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

"""Every named axis fails one way on a name it does not hold: flows,
targets and backends (open registries), deploy executors and IR passes
(closed tables)."""

import pickle

import pytest

from repro.flows import UnknownFlowError, as_flow, flow_names
from repro.opt import UnknownPassError, pass_table, resolve_passes
from repro.registry import UnknownNameError
from repro.service.executors import (
    UnknownExecutorError, as_executor, executor_names,
)
from repro.targets import (
    UnknownBackendError, UnknownTargetError, as_target, backend_names,
    get_backend, target_names,
)

#: (error type, the axis's public resolver, its known names)
AXES = {
    "flow": (UnknownFlowError, as_flow, flow_names),
    "target": (UnknownTargetError, as_target, target_names),
    "backend": (UnknownBackendError, get_backend, backend_names),
    "executor": (UnknownExecutorError, as_executor, executor_names),
    "pass": (UnknownPassError, lambda name: resolve_passes([name]),
             lambda: sorted(pass_table())),
}


@pytest.mark.parametrize("axis", sorted(AXES))
def test_unknown_name_fails_one_way(axis):
    error, resolve, known = AXES[axis]
    with pytest.raises(error) as info:
        resolve("warp-speed")
    exc = info.value
    assert isinstance(exc, UnknownNameError)
    assert isinstance(exc, KeyError) and isinstance(exc, ValueError)
    message = str(exc)
    assert message.startswith(f"unknown {axis} 'warp-speed';")
    assert known() and all(name in message for name in known())
    assert (exc.name, exc.known) == ("warp-speed", tuple(known()))


def test_unknown_name_survives_pickling():
    # a worker process's error reaches the parent by pickle
    exc = pickle.loads(pickle.dumps(UnknownTargetError("z80", ("x86",))))
    assert type(exc) is UnknownTargetError
    assert (exc.name, exc.known, str(exc)) == (
        "z80", ("x86",), str(UnknownTargetError("z80", ("x86",))))

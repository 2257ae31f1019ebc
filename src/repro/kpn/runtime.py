"""Functional KPN execution (VM-backed).

Runs the network on real data: every firing calls the actor's PVI
function in the VM against a private memory, with blocks marshalled
through Python FIFOs.  The scheduler parameter exists *to prove it
does not matter*: Kahn determinism (same outputs for any admissible
firing order) is a property test in the suite.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Sequence

from repro.bytecode.module import BytecodeModule
from repro.lang import types as ty
from repro.semantics import Memory
from repro.vm import VM


class NetworkRuntime:
    """Executes a :class:`~repro.kpn.graph.ProcessNetwork`."""

    def __init__(self, network, bytecode: BytecodeModule):
        self.network = network
        self.bytecode = bytecode

    def run(self, inputs: Dict[str, Sequence[float]],
            blocks: Optional[int] = None,
            schedule_seed: Optional[int] = None) \
            -> Dict[str, List[float]]:
        """Feed ``inputs`` (samples per network input channel), run to
        quiescence, return samples per network output channel.

        ``schedule_seed`` shuffles the ready-actor choice — outputs
        must not depend on it.
        """
        network = self.network
        size = network.block_size
        fifos: Dict[str, deque] = {name: deque()
                                   for name in network.channels}

        for cname in network.input_channels():
            samples = list(inputs.get(cname, []))
            total = blocks if blocks is not None \
                else (len(samples) + size - 1) // size
            for b in range(total):
                block = samples[b * size:(b + 1) * size]
                block += [0.0] * (size - len(block))
                fifos[cname].append(block)

        rng = random.Random(schedule_seed)

        def ready() -> List[str]:
            names = [name for name, actor in network.actors.items()
                     if all(fifos[c] for c in actor.inputs)]
            if schedule_seed is not None:
                rng.shuffle(names)
            return names

        progress = True
        while progress:
            progress = False
            # a channel has one consumer (ProcessNetwork refuses a
            # second), so an actor ready now stays ready until it fires
            for name in ready():
                actor = network.actors[name]
                in_blocks = [fifos[c].popleft() for c in actor.inputs]
                out_blocks = self._fire(actor, in_blocks, size)
                for cname, block in zip(actor.outputs, out_blocks):
                    fifos[cname].append(block)
                progress = True

        return {cname: [sample for block in fifos[cname]
                        for sample in block]
                for cname in network.output_channels()}

    def _fire(self, actor, in_blocks: List[List[float]],
              size: int) -> List[List[float]]:
        memory = Memory(1 << 18)
        vm = VM(self.bytecode, memory=memory, verify=False)
        in_addrs = [memory.alloc_array(ty.F32, block)
                    for block in in_blocks]
        out_addrs = [memory.alloc_array(ty.F32, [0.0] * size)
                     for _ in actor.outputs]
        vm.call(actor.function, in_addrs + out_addrs + [size])
        return [memory.read_array(ty.F32, addr, size)
                for addr in out_addrs]

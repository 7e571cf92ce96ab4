"""A fixed host-speed reference that uses no repository code.

The benchmark's host shares its CPUs with other tenants, and its speed
drifts by a third over minutes.  Timing this fixed work next to the
workload, in the same phase, measures that drift so the result line can
divide it out (see ``run.py``).
"""

from __future__ import annotations

import gc
import time
from typing import Tuple


class _Machine:
    """A toy register machine: the interpreter-bound mix of dispatch,
    attribute and list access, small-integer arithmetic and calls that
    the simulator's own hot loops are made of."""

    def __init__(self):
        self.regs = [0] * 32
        self.mem = list(range(1 << 15))
        self.pc = 0

    def alu(self, rd: int, rs: int, imm: int) -> None:
        self.regs[rd] = (self.regs[rs] + imm) & 0xFFFFFFFF

    def load(self, rd: int, rs: int, imm: int) -> None:
        self.regs[rd] = self.mem[(self.regs[rs] + imm) & 0x7FFF]

    def store(self, rd: int, rs: int, imm: int) -> None:
        self.mem[(self.regs[rs] + imm) & 0x7FFF] = self.regs[rd]


def reference_seconds(steps: int = 15_000) -> Tuple[float, float]:
    """(wall, process CPU) seconds one run of the reference work takes
    now, so each metric can be normalised by the clock it was measured
    on.  The collector is off while it runs, so the time does not
    depend on how many objects the workload keeps alive."""
    gc.disable()
    start, start_cpu = time.perf_counter(), time.process_time()
    machine = _Machine()
    ops = (machine.alu, machine.load, machine.store, machine.alu)
    program = [(ops[(i * 7) % 4], (i * 5) % 31 + 1, (i * 3) % 32,
                i * 2654435761 & 0xFFF) for i in range(257)]
    size = len(program)
    for _ in range(steps):
        op, rd, rs, imm = program[machine.pc]
        op(rd, rs, imm)
        machine.pc = (machine.pc + 1 + (machine.regs[rd] & 3)) % size
    seconds = time.perf_counter() - start, time.process_time() - start_cpu
    gc.enable()
    return seconds

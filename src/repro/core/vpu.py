"""Vector processing unit timing model (paper Sec. V-C, Fig. 10b).

The VPU is a 64-wide FP16 ALU (VFU) plus a special function unit (SFU_V) for
accumulation, reciprocal, and reciprocal square root.  Operator latencies come
straight from the paper: add/sub 11 cycles, mul 6 cycles, exp 4 cycles; loads
and stores bypass the execution stage and take a single cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.scoreboard import maximum
from repro.fpga.u280 import DEFAULT_U280, U280Spec
from repro.isa.instructions import VectorInstruction
from repro.isa.opcodes import VectorOpcode

#: Elements processed per cycle by the vector ALU (d-wide datapath).
VPU_VECTOR_WIDTH = 64

#: Operator pipeline latencies in cycles (paper Sec. V-C).
VECTOR_OP_LATENCY: dict[VectorOpcode, int] = {
    VectorOpcode.ADD: 11,
    VectorOpcode.SUB: 11,
    VectorOpcode.MUL: 6,
    VectorOpcode.EXP: 4,
    VectorOpcode.ACCUM: 11,       # adder tree in SFU_V
    VectorOpcode.RECIP: 28,
    VectorOpcode.RECIP_SQRT: 28,
    VectorOpcode.LOAD: 1,         # bypass path
    VectorOpcode.STORE: 1,        # bypass path
}


@dataclass(frozen=True)
class VectorTiming:
    """Timing of one vector instruction."""

    occupancy_cycles: float
    latency_cycles: float


@dataclass(frozen=True)
class VPUModel:
    """Cycle model of the vector processing unit (VFU + SFU_V)."""

    vector_width: int = VPU_VECTOR_WIDTH
    spec: U280Spec = DEFAULT_U280
    calibration: Calibration = DEFAULT_CALIBRATION

    def instruction_timing(self, instruction: VectorInstruction) -> VectorTiming:
        """Cycle timing of one vector instruction.

        Throughput is one ``vector_width`` chunk per cycle per row; the
        operator latency is charged once (deep pipelining), and loads/stores
        ride the bypass path.  An array-valued ``length`` (a step table's KV
        lengths) gives array-valued cycle counts.
        """
        chunks_per_row = maximum(1, -(-instruction.length // self.vector_width))
        op_latency = VECTOR_OP_LATENCY.get(instruction.opcode, 11)
        if instruction.opcode in (VectorOpcode.LOAD, VectorOpcode.STORE):
            issue = self.calibration.vector_issue_cycles // 4
        else:
            issue = self.calibration.vector_issue_cycles
        # Dependent vector chains (LayerNorm, Softmax) cannot hide the operator
        # latency, so it is part of the occupancy rather than overlapped.
        occupancy = instruction.rows * chunks_per_row + issue + op_latency
        latency = occupancy + self.calibration.pipeline_fill_cycles_vpu
        return VectorTiming(occupancy_cycles=occupancy, latency_cycles=latency)

    def throughput_elements_per_second(self) -> float:
        """Peak elementwise throughput of the VFU."""
        return self.vector_width * self.spec.kernel_frequency_hz

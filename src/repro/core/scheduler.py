"""Instruction-level timing scheduler (the chaining model of Sec. IV-C).

The scheduler walks a program in order and assigns each instruction to its
functional unit (MPU, VPU, DMA, router).  An instruction starts when both its
unit is free and its source operands are valid in the scoreboard; it occupies
the unit for its occupancy cycles and its destinations become valid after its
(slightly longer) latency.  Because the four units are independent, DMA
prefetches and router transfers naturally overlap compute — the paper's
"instruction chaining and parallel execution".

The scheduler also attributes each instruction's occupancy to its phase tag,
which yields the latency breakdowns of Fig. 4 and Fig. 15.

A program whose KV-length fields hold an array (:meth:`Program.with_kv_length`)
is replayed for every KV length at once, each element through the same IEEE
operations as the scalar replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dma import DMAModel
from repro.core.mpu import MPUModel
from repro.core.router import RouterModel
from repro.core.scoreboard import Scoreboard, maximum
from repro.core.vpu import VPUModel
from repro.errors import ExecutionError
from repro.isa.instructions import (
    DMAInstruction,
    Instruction,
    MatrixInstruction,
    RouterInstruction,
    VectorInstruction,
)
from repro.isa.program import Program


@dataclass(frozen=True)
class InstructionTrace:
    """Scheduling record of one instruction (useful for debugging and tests)."""

    index: int
    unit: str
    tag: str
    start_cycle: float
    finish_cycle: float
    ready_cycle: float

    @property
    def occupancy_cycles(self) -> float:
        return self.finish_cycle - self.start_cycle


@dataclass
class ProgramTiming:
    """Timing of one program on one device (arrays for an array-valued one)."""

    program_name: str
    total_cycles: float
    cycles_by_tag: dict[str, float] = field(default_factory=dict)
    cycles_by_unit: dict[str, float] = field(default_factory=dict)
    traces: list[InstructionTrace] = field(default_factory=list)

    def seconds(self, frequency_hz: float) -> float:
        """Wall-clock seconds at the given kernel frequency."""
        return self.total_cycles / frequency_hz

    def breakdown_fractions(self) -> dict[str, float]:
        """Share of accounted (unit-occupancy) cycles per phase tag."""
        accounted = sum(self.cycles_by_tag.values())
        if accounted <= 0:
            return {tag: 0.0 for tag in self.cycles_by_tag}
        return {tag: value / accounted for tag, value in self.cycles_by_tag.items()}


class TimingScheduler:
    """Schedules programs onto the four functional units of one compute core."""

    UNIT_MPU = "mpu"
    UNIT_VPU = "vpu"
    UNIT_DMA = "dma"
    UNIT_ROUTER = "router"

    def __init__(
        self,
        mpu: MPUModel,
        vpu: VPUModel,
        dma: DMAModel,
        router: RouterModel,
    ) -> None:
        self.mpu = mpu
        self.vpu = vpu
        self.dma = dma
        self.router = router

    # ----------------------------------------------------------------- internal
    def _unit_and_timing(self, instruction: Instruction) -> tuple[str, float, float]:
        """Return (unit name, occupancy cycles, result latency cycles)."""
        if isinstance(instruction, MatrixInstruction):
            timing = self.mpu.instruction_timing(instruction)
            return self.UNIT_MPU, timing.occupancy_cycles, timing.latency_cycles
        if isinstance(instruction, VectorInstruction):
            timing = self.vpu.instruction_timing(instruction)
            return self.UNIT_VPU, timing.occupancy_cycles, timing.latency_cycles
        if isinstance(instruction, DMAInstruction):
            timing = self.dma.instruction_timing(instruction)
            return self.UNIT_DMA, timing.occupancy_cycles, timing.latency_cycles
        if isinstance(instruction, RouterInstruction):
            timing = self.router.instruction_timing(instruction)
            return self.UNIT_ROUTER, timing.occupancy_cycles, timing.latency_cycles
        raise ExecutionError(f"unknown instruction type: {type(instruction).__name__}")

    # ------------------------------------------------------------------- public
    def time_program(
        self, program: Program, keep_traces: bool = False
    ) -> ProgramTiming:
        """Compute the cycle-level timing of ``program`` on one core."""
        scoreboard = Scoreboard()
        scoreboard.mark_live_in(program.inputs)
        unit_free: dict[str, float] = {
            self.UNIT_MPU: 0.0,
            self.UNIT_VPU: 0.0,
            self.UNIT_DMA: 0.0,
            self.UNIT_ROUTER: 0.0,
        }
        cycles_by_tag: dict[str, float] = {}
        cycles_by_unit: dict[str, float] = {}
        traces: list[InstructionTrace] = []
        total = 0.0

        for index, instruction in enumerate(program.instructions):
            unit, occupancy, result_latency = self._unit_and_timing(instruction)
            ready = scoreboard.ready_time(instruction.source_operands())
            start = maximum(ready, unit_free[unit])
            finish = start + occupancy
            unit_free[unit] = finish
            scoreboard.mark_written(
                instruction.destination_operands(), start + result_latency
            )
            total = maximum(total, start + result_latency)

            cycles_by_tag[instruction.tag] = (
                cycles_by_tag.get(instruction.tag, 0.0) + occupancy
            )
            cycles_by_unit[unit] = cycles_by_unit.get(unit, 0.0) + occupancy
            if keep_traces:
                traces.append(
                    InstructionTrace(
                        index=index,
                        unit=unit,
                        tag=instruction.tag,
                        start_cycle=start,
                        finish_cycle=finish,
                        ready_cycle=ready,
                    )
                )

        return ProgramTiming(
            program_name=program.name,
            total_cycles=total,
            cycles_by_tag=cycles_by_tag,
            cycles_by_unit=cycles_by_unit,
            traces=traces,
        )

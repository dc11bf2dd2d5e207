"""Tests for the scoreboard, register-file accounting, and the timing scheduler."""

import pytest

from repro.core.calibration import DEFAULT_CALIBRATION
from repro.core.dma import DMAModel
from repro.core.mpu import MPUModel
from repro.core.router import RouterModel
from repro.core.scheduler import TimingScheduler
from repro.core.scoreboard import Scoreboard
from repro.core.vpu import VPUModel
from repro.isa.compiler import DFXCompiler
from repro.isa.instructions import DMAInstruction, MatrixInstruction, VectorInstruction
from repro.isa.opcodes import DMAOpcode, MatrixOpcode, VectorOpcode
from repro.isa.program import Program
from repro.model.config import GPT2_1_5B, GPT2_TEST_TINY
from repro.parallel.partitioner import build_partition_plan
from repro.results import PHASE_SYNC


def _scheduler(num_devices=4):
    return TimingScheduler(
        mpu=MPUModel(), vpu=VPUModel(), dma=DMAModel(),
        router=RouterModel(num_devices=num_devices),
    )


class TestScoreboard:
    def test_unknown_buffers_are_always_ready(self):
        assert Scoreboard().ready_time(["w_ffn1", "bias"]) == 0.0

    def test_ready_time_is_max_over_sources(self):
        board = Scoreboard()
        board.mark_written(["a"], 10.0)
        board.mark_written(["b"], 25.0)
        assert board.ready_time(["a", "b"]) == 25.0

    def test_rewrite_keeps_latest_time(self):
        board = Scoreboard()
        board.mark_written(["a"], 30.0)
        board.mark_written(["a"], 10.0)
        assert board.ready_time(["a"]) == 30.0

    def test_live_in_marking(self):
        board = Scoreboard()
        board.mark_live_in(["hidden"])
        assert board.ready_time(["hidden"]) == 0.0
        assert "hidden" in board.snapshot()


class TestSchedulerBehaviour:
    def test_dependent_instructions_serialize(self):
        program = Program(name="chain", inputs=("x",))
        program.extend([
            VectorInstruction(VectorOpcode.MUL, dst="a", src1="x", src2="x", length=1024),
            VectorInstruction(VectorOpcode.ADD, dst="b", src1="a", src2="x", length=1024),
        ])
        timing = _scheduler().time_program(program, keep_traces=True)
        first, second = timing.traces
        assert second.start_cycle >= first.finish_cycle

    def test_independent_units_overlap(self):
        # A DMA prefetch and an unrelated vector op should overlap in time.
        program = Program(name="overlap", inputs=("x",))
        program.extend([
            DMAInstruction(DMAOpcode.STORE_KV, dst="kv", src="x", size_bytes=500_000),
            VectorInstruction(VectorOpcode.MUL, dst="y", src1="x", src2="x", length=6144),
        ])
        timing = _scheduler().time_program(program, keep_traces=True)
        dma_trace, vpu_trace = timing.traces
        assert vpu_trace.start_cycle < dma_trace.finish_cycle
        assert timing.total_cycles < (
            dma_trace.occupancy_cycles + vpu_trace.occupancy_cycles
        ) * 1.5

    def test_same_unit_instructions_queue(self):
        conv = MatrixInstruction(MatrixOpcode.CONV1D, dst="a", input_operand="x",
                                 weight_operand="w1", rows=1, in_dim=1536, out_dim=384)
        conv2 = MatrixInstruction(MatrixOpcode.CONV1D, dst="b", input_operand="x",
                                  weight_operand="w2", rows=1, in_dim=1536, out_dim=384)
        program = Program(name="queue", inputs=("x",))
        program.extend([conv, conv2])
        timing = _scheduler().time_program(program, keep_traces=True)
        assert timing.traces[1].start_cycle >= timing.traces[0].finish_cycle

    def test_cycles_by_tag_and_unit_account_all_occupancy(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        program = DFXCompiler(GPT2_1_5B, plan, 0).compile_decoder_layer(1, 16)
        timing = _scheduler().time_program(program)
        assert sum(timing.cycles_by_tag.values()) == pytest.approx(
            sum(timing.cycles_by_unit.values())
        )
        assert PHASE_SYNC in timing.cycles_by_tag

    def test_breakdown_fractions_normalized(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        program = DFXCompiler(GPT2_1_5B, plan, 0).compile_decoder_layer(1, 16)
        fractions = _scheduler().time_program(program).breakdown_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_seconds_conversion(self):
        plan = build_partition_plan(GPT2_TEST_TINY, 2)
        program = DFXCompiler(GPT2_TEST_TINY, plan, 0).compile_decoder_layer(1, 0)
        timing = _scheduler(2).time_program(program)
        assert timing.seconds(200e6) == pytest.approx(timing.total_cycles / 200e6)

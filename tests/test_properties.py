"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.calibration import Calibration
from repro.core.mpu import MPUModel
from repro.core.router import RouterModel
from repro.core.tiling import TilingConfig
from repro.core.vpu import VPUModel
from repro.fpga.aurora import AuroraLinkModel
from repro.isa.instructions import MatrixInstruction, RouterInstruction, VectorInstruction
from repro.isa.opcodes import MatrixOpcode, RouterOpcode, VectorOpcode
from repro.model import gelu
from repro.model.layers import causal_mask, softmax
from repro.workloads import Workload

# Keep hypothesis fast and deterministic inside the suite.
DEFAULT_SETTINGS = settings(max_examples=50, deadline=None)


class TestNumericProperties:
    @DEFAULT_SETTINGS
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=64))
    def test_softmax_is_a_probability_distribution(self, values):
        row = np.array([values], dtype=np.float32)
        result = softmax(row)
        assert np.all(result >= 0)
        assert float(result.sum()) == pytest.approx(1.0, abs=1e-4)

    @DEFAULT_SETTINGS
    @given(st.lists(st.floats(-8, 8), min_size=1, max_size=128))
    def test_lut_gelu_tracks_tanh_gelu(self, values):
        x = np.array(values, dtype=np.float32)
        error = np.abs(gelu.gelu_lut(x) - gelu.gelu_tanh(x))
        assert float(error.max()) < 2e-3

    @DEFAULT_SETTINGS
    @given(st.integers(1, 64), st.integers(1, 64))
    def test_causal_mask_counts(self, query_len, key_len):
        if query_len > key_len:
            return
        mask = causal_mask(query_len, key_len)
        offset = key_len - query_len
        # Row i allows exactly offset + i + 1 positions.
        for i in range(query_len):
            assert int(mask[i].sum()) == offset + i + 1


class TestTilingProperties:
    @DEFAULT_SETTINGS
    @given(st.integers(1, 4096), st.integers(1, 4096))
    def test_tiles_cover_matrix(self, in_dim, out_dim):
        tiling = TilingConfig(64, 16)
        tiles = tiling.tiles_for(in_dim, out_dim)
        assert tiles * tiling.d * tiling.l >= in_dim * out_dim
        assert (tiles - math.ceil(in_dim / 64) * math.ceil(out_dim / 16)) == 0

    @DEFAULT_SETTINGS
    @given(st.integers(1, 2048), st.integers(1, 2048))
    def test_utilization_bounded(self, in_dim, out_dim):
        utilization = TilingConfig(64, 16).utilization(in_dim, out_dim)
        assert 0.0 < utilization <= 1.0

    @DEFAULT_SETTINGS
    @given(st.sampled_from([(8, 128), (16, 64), (32, 32), (64, 16), (128, 8)]),
           st.integers(1, 512), st.integers(1, 512))
    def test_padding_never_reduces_tiles(self, point, in_dim, out_dim):
        tiling = TilingConfig(*point)
        assert tiling.tiles_for(in_dim + tiling.d, out_dim) > tiling.tiles_for(in_dim, out_dim)


class TestTimingMonotonicity:
    @DEFAULT_SETTINGS
    @given(st.integers(1, 8), st.integers(64, 2048), st.integers(16, 1024))
    def test_matrix_occupancy_monotone_in_rows(self, rows, in_dim, out_dim):
        mpu = MPUModel()
        small = MatrixInstruction(MatrixOpcode.CONV1D, dst="y", input_operand="x",
                                  weight_operand="w", rows=rows, in_dim=in_dim,
                                  out_dim=out_dim)
        big = MatrixInstruction(MatrixOpcode.CONV1D, dst="y", input_operand="x",
                                weight_operand="w", rows=rows + 1, in_dim=in_dim,
                                out_dim=out_dim)
        assert (
            mpu.instruction_timing(big).occupancy_cycles
            >= mpu.instruction_timing(small).occupancy_cycles
        )

    @DEFAULT_SETTINGS
    @given(st.floats(0.1, 1.0), st.floats(0.1, 1.0))
    def test_matrix_time_monotone_in_hbm_efficiency(self, eff_a, eff_b):
        lower, higher = sorted((eff_a, eff_b))
        instr = MatrixInstruction(MatrixOpcode.CONV1D, dst="y", input_operand="x",
                                  weight_operand="w", rows=1, in_dim=1536, out_dim=384)
        slow = MPUModel(calibration=Calibration(hbm_efficiency=lower))
        fast = MPUModel(calibration=Calibration(hbm_efficiency=higher))
        assert (
            fast.instruction_timing(instr).occupancy_cycles
            <= slow.instruction_timing(instr).occupancy_cycles + 1e-9
        )

    @DEFAULT_SETTINGS
    @given(st.integers(1, 8192))
    def test_vector_occupancy_monotone_in_length(self, length):
        vpu = VPUModel()
        shorter = VectorInstruction(VectorOpcode.ADD, dst="y", src1="a", src2="b",
                                    length=length)
        longer = VectorInstruction(VectorOpcode.ADD, dst="y", src1="a", src2="b",
                                   length=length + 64)
        assert (
            vpu.instruction_timing(longer).occupancy_cycles
            >= vpu.instruction_timing(shorter).occupancy_cycles
        )

    @DEFAULT_SETTINGS
    @given(st.integers(2, 8), st.integers(64, 65536))
    def test_ring_sync_scales_with_devices_and_payload(self, num_devices, payload):
        smaller = RouterModel(num_devices=num_devices)
        larger = RouterModel(num_devices=num_devices + 1)
        sync = RouterInstruction(RouterOpcode.SYNC, dst="d", src="s",
                                 payload_elements=payload)
        assert (
            larger.instruction_timing(sync).occupancy_cycles
            >= smaller.instruction_timing(sync).occupancy_cycles
        )

    @DEFAULT_SETTINGS
    @given(st.integers(0, 10**7), st.integers(2, 8))
    def test_all_gather_never_negative(self, payload_bytes, num_devices):
        link = AuroraLinkModel()
        assert link.ring_all_gather_seconds(payload_bytes, num_devices) >= 0.0


class TestWorkloadProperties:
    @DEFAULT_SETTINGS
    @given(st.integers(1, 1024), st.integers(1, 1024))
    def test_workload_invariants(self, inputs, outputs):
        workload = Workload(inputs, outputs)
        assert workload.total_tokens == inputs + outputs
        assert workload.generation_iterations == outputs - 1
        assert workload.label == f"[{inputs}:{outputs}]"

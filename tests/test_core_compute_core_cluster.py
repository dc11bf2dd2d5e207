"""Tests for the compute core, device capacity checks, and the cluster."""

import pytest

from repro.core.cluster import DFXCluster
from repro.core.compute_core import ComputeCore
from repro.core.device import FPGADevice
from repro.errors import ConfigurationError, ResourceExhaustedError
from repro.model.config import GPT2_1_5B, GPT2_345M
from repro.parallel.partitioner import build_partition_plan


@pytest.fixture(scope="module")
def core_1_5b():
    plan = build_partition_plan(GPT2_1_5B, 4)
    return ComputeCore(GPT2_1_5B, plan, device_id=0)


class TestComputeCore:
    def test_step_table_is_built_once_per_shape(self, core_1_5b):
        assert core_1_5b.step_table() is core_1_5b.step_table(rows=1, batch=1)
        assert core_1_5b.step_table(batch=4) is not core_1_5b.step_table()
        with pytest.raises(ConfigurationError, match="one row per stream"):
            core_1_5b.step_table(rows=2, batch=2)

    def test_longer_context_costs_more(self, core_1_5b):
        short = core_1_5b.token_step(1, 8).timing.total_cycles
        long = core_1_5b.token_step(1, 512).timing.total_cycles
        assert long > short

    def test_token_step_includes_all_layers(self, core_1_5b):
        step = core_1_5b.token_step(1, 32)
        layer = core_1_5b.scheduler.time_program(
            core_1_5b.compiler.compile_decoder_layer(1, 32)
        )
        assert step.timing.total_cycles > GPT2_1_5B.n_layer * 0.95 * layer.total_cycles

    def test_steps_past_the_context_window_are_refused(self, core_1_5b):
        last = GPT2_1_5B.n_positions - 1
        assert core_1_5b.token_step(1, last).timing.total_cycles > 0
        for rows, past in ((1, last + 1), (1, -1), (4, last - 2)):
            with pytest.raises(ConfigurationError, match="context window"):
                core_1_5b.token_step(rows, past)

    def test_token_step_flops_match_partitioned_model_size(self, core_1_5b):
        # Per device, a generation step is dominated by 2 * (params / devices)
        # multiply-accumulate FLOPs.
        step = core_1_5b.token_step(1, 1)
        dense_flops = 2 * GPT2_1_5B.total_parameter_count() / 4
        assert step.flops_per_device == pytest.approx(dense_flops, rel=0.15)

    def test_token_step_seconds_in_expected_range(self, core_1_5b):
        # Paper Fig. 14: ~6.9 ms per token on the 1.5B model with 4 FPGAs.
        seconds = core_1_5b.token_step_seconds(1, 64)
        assert 0.004 < seconds < 0.010


class TestDeviceCapacity:
    def test_1_5b_on_four_devices_fits(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        device = FPGADevice(GPT2_1_5B, plan, 0)
        footprint = device.check_capacity()
        assert footprint.hbm_bytes < 8 * 2**30

    def test_footprint_components(self):
        plan = build_partition_plan(GPT2_345M, 1)
        device = FPGADevice(GPT2_345M, plan, 0)
        footprint = device.memory_footprint(max_tokens=256)
        assert footprint.weight_bytes > 0
        assert footprint.kv_cache_bytes > 0
        assert footprint.hbm_bytes == footprint.weight_bytes + footprint.kv_cache_bytes
        assert footprint.ddr_bytes > 0

    def test_oversized_model_rejected(self):
        huge = GPT2_1_5B.scaled(name="gpt2-huge", n_embd=4096, n_head=32, n_layer=64)
        plan = build_partition_plan(huge, 1)
        with pytest.raises(ResourceExhaustedError):
            FPGADevice(huge, plan, 0).check_capacity()


class TestCluster:
    def test_cluster_step_matches_representative_core(self):
        cluster = DFXCluster(GPT2_345M, num_devices=2)
        assert cluster.token_step(1, 16).timing.total_cycles == pytest.approx(
            cluster.core.token_step(1, 16).timing.total_cycles
        )

    def test_more_devices_reduce_step_time(self):
        one = DFXCluster(GPT2_345M, num_devices=1).token_step_seconds(1, 64)
        four = DFXCluster(GPT2_345M, num_devices=4).token_step_seconds(1, 64)
        assert four < one
        # ...but not perfectly linearly (sync + non-parallel vector work).
        assert four > one / 4

    def test_power_scales_with_devices(self):
        assert DFXCluster(GPT2_345M, 4).total_power_watts() == pytest.approx(180.0)
        assert DFXCluster(GPT2_345M, 1).total_power_watts() == pytest.approx(45.0)

    def test_cluster_flops_scale_with_devices(self):
        cluster = DFXCluster(GPT2_345M, num_devices=2)
        per_device = cluster.token_step(1, 4).flops_per_device
        assert cluster.cluster_flops_per_step(1, 4) == pytest.approx(2 * per_device)


class TestBatchedTokenStep:
    def test_batch_one_is_exactly_the_single_step(self, core_1_5b):
        single = core_1_5b.token_step(rows=1, past_length=16)
        batched = core_1_5b.batched_token_step(batch=1, past_length=16)
        assert batched.timing.total_cycles == single.timing.total_cycles
        assert batched.flops_per_device == single.flops_per_device

    def test_cohort_step_amortizes_the_weight_stream(self, core_1_5b):
        single = core_1_5b.token_step(rows=1, past_length=16).timing.total_cycles
        for batch in (2, 4, 8):
            cohort = core_1_5b.batched_token_step(batch, 16).timing.total_cycles
            # One cohort step costs more than one stream's step but far less
            # than running the batch sequentially.
            assert single < cohort < batch * single

    def test_per_stream_kv_work_still_scales_with_batch(self, core_1_5b):
        shallow = core_1_5b.batched_token_step(8, past_length=8)
        deep = core_1_5b.batched_token_step(8, past_length=512)
        assert deep.timing.total_cycles > shallow.timing.total_cycles

    def test_cluster_delegates_step_tables(self):
        cluster = DFXCluster(GPT2_345M, num_devices=4)
        table = cluster.step_table(batch=4)
        assert table is cluster.core.step_table(1, 4)
        assert table.rows == 4
        assert table.timing.total_cycles[16] == (
            cluster.core.batched_token_step(4, 16).timing.total_cycles
        )

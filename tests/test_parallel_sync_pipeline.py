"""Tests for sync accounting and the pipelined-parallelism baseline."""

import pytest

from repro.errors import PartitioningError
from repro.model.config import GPT2_1_5B, GPT2_345M
from repro.parallel.partitioner import build_partition_plan
from repro.parallel.pipeline import (
    build_pipeline_plan,
    pipelined_token_latency_ms,
)
from repro.parallel.sync import layer_sync_schedule, sync_bytes_per_token, syncs_per_token
from repro.results import PHASE_FFN, PHASE_SELF_ATTENTION


class TestSyncSchedule:
    def test_four_syncs_per_layer(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        schedule = layer_sync_schedule(plan)
        assert len(schedule) == 4
        assert [point.phase for point in schedule] == [
            PHASE_SELF_ATTENTION, PHASE_SELF_ATTENTION, PHASE_FFN, PHASE_FFN,
        ]

    def test_total_syncs_per_token(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        assert syncs_per_token(plan) == 4 * GPT2_1_5B.n_layer

    def test_payload_sizes(self):
        plan = build_partition_plan(GPT2_1_5B, 4)
        schedule = layer_sync_schedule(plan)
        assert schedule[0].payload_bytes() == GPT2_1_5B.n_embd * 2
        assert schedule[2].payload_bytes() == GPT2_1_5B.ffn_dim * 2
        assert schedule[0].per_device_bytes(4) == GPT2_1_5B.n_embd * 2 // 4

    def test_single_device_moves_no_bytes(self):
        plan = build_partition_plan(GPT2_1_5B, 1)
        assert sync_bytes_per_token(plan) == 0

    def test_sync_bytes_grow_with_device_count(self):
        two = sync_bytes_per_token(build_partition_plan(GPT2_1_5B, 2))
        four = sync_bytes_per_token(build_partition_plan(GPT2_1_5B, 4))
        assert four > two > 0


class TestPipelinePlan:
    def test_stages_cover_all_layers(self):
        plan = build_pipeline_plan(GPT2_345M, 4)
        assert sum(stage.num_layers for stage in plan.stages) == GPT2_345M.n_layer
        assert plan.stage_for_layer(0).device_id == 0
        assert plan.stage_for_layer(GPT2_345M.n_layer - 1).device_id == 3

    def test_uneven_layer_counts_distributed(self):
        plan = build_pipeline_plan(GPT2_345M.scaled(n_layer=10), 4)
        assert [stage.num_layers for stage in plan.stages] == [3, 3, 2, 2]

    def test_too_many_stages_rejected(self):
        with pytest.raises(PartitioningError):
            build_pipeline_plan(GPT2_345M.scaled(n_layer=2), 4)


class TestParallelismComparison:
    """The paper's argument against pipelined parallelism for generation."""

    def test_pipelining_does_not_reduce_token_latency(self):
        single_layer_ms = 0.1
        pipelined = pipelined_token_latency_ms(single_layer_ms, GPT2_1_5B, 4, 0.01)
        single_device = GPT2_1_5B.n_layer * single_layer_ms
        assert pipelined >= single_device

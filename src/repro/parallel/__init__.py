"""Model-parallel partitioning: intra-layer (head-wise / column-wise) scheme
used by DFX, sync-point accounting, and the pipelined-parallelism baseline."""

from repro.parallel.partitioner import (
    DeviceLayerWeights,
    DevicePartition,
    PartitionPlan,
    build_partition_plan,
    partition_layer_weights,
    partition_model_weights,
)
from repro.parallel.sync import (
    SyncPoint,
    layer_sync_schedule,
    sync_bytes_per_token,
    syncs_per_token,
)
from repro.parallel.pipeline import (
    PipelinePlan,
    PipelineStage,
    build_pipeline_plan,
    pipelined_token_latency_ms,
)

__all__ = [
    "DeviceLayerWeights",
    "DevicePartition",
    "PartitionPlan",
    "build_partition_plan",
    "partition_layer_weights",
    "partition_model_weights",
    "SyncPoint",
    "layer_sync_schedule",
    "sync_bytes_per_token",
    "syncs_per_token",
    "PipelinePlan",
    "PipelineStage",
    "build_pipeline_plan",
    "pipelined_token_latency_ms",
]

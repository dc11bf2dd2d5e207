"""Pipelined model parallelism baseline (paper Sec. II-B / IV-B).

The paper argues against pipelined parallelism for text generation: because
each generated token feeds back into the next iteration, a pipeline cannot
overlap work across tokens, so per-token latency equals the *sum* of the
per-stage latencies (plus inter-device transfers), whereas intra-layer
parallelism divides each operation's latency by the device count.  This module
provides a simple analytical model of the pipelined alternative so the
ablation benchmark can reproduce that comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PartitioningError
from repro.model.config import GPT2Config


@dataclass(frozen=True)
class PipelineStage:
    """A contiguous block of decoder layers assigned to one device."""

    device_id: int
    first_layer: int
    num_layers: int


@dataclass(frozen=True)
class PipelinePlan:
    """Assignment of decoder layers to devices for pipelined parallelism."""

    config: GPT2Config
    num_devices: int
    stages: tuple[PipelineStage, ...]

    def stage_for_layer(self, layer_index: int) -> PipelineStage:
        """Return the stage that owns ``layer_index``."""
        for stage in self.stages:
            if stage.first_layer <= layer_index < stage.first_layer + stage.num_layers:
                return stage
        raise PartitioningError(f"layer {layer_index} not covered by any stage")


def build_pipeline_plan(config: GPT2Config, num_devices: int) -> PipelinePlan:
    """Split the decoder layers into ``num_devices`` contiguous stages."""
    if num_devices <= 0:
        raise PartitioningError(f"num_devices must be positive, got {num_devices}")
    if num_devices > config.n_layer:
        raise PartitioningError(
            f"cannot build {num_devices} pipeline stages from {config.n_layer} layers"
        )
    base = config.n_layer // num_devices
    remainder = config.n_layer % num_devices
    stages = []
    next_layer = 0
    for device_id in range(num_devices):
        layers_here = base + (1 if device_id < remainder else 0)
        stages.append(
            PipelineStage(
                device_id=device_id, first_layer=next_layer, num_layers=layers_here
            )
        )
        next_layer += layers_here
    return PipelinePlan(config=config, num_devices=num_devices, stages=tuple(stages))


def pipelined_token_latency_ms(
    single_device_layer_latency_ms: float,
    config: GPT2Config,
    num_devices: int,
    inter_stage_transfer_ms: float,
) -> float:
    """Per-token latency under pipelined parallelism.

    Every layer still runs at its full single-device latency; the pipeline
    only adds inter-stage transfers.  Because of the feedback loop there is no
    cross-token overlap to claim back.
    """
    plan = build_pipeline_plan(config, num_devices)
    transfers = len(plan.stages) - 1
    return (
        config.n_layer * single_device_layer_latency_ms
        + transfers * inter_stage_transfer_ms
    )

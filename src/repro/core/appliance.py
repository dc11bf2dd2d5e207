"""DFX appliance: end-to-end text-generation latency on a multi-FPGA cluster.

This is the top-level entry point of the performance model: given a GPT-2
configuration, a device count, and a workload, it simulates the summarization
stage (one pass over the prompt) and every generation-stage iteration (one
token at a time with a growing KV cache) and reports an
:class:`~repro.results.InferenceResult` with per-phase breakdowns, throughput,
energy, and achieved FLOP/s.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.cluster import DFXCluster
from repro.core.tiling import TilingConfig
from repro.fpga.u280 import DEFAULT_U280, U280Spec
from repro.model.config import GPT2Config
from repro.results import InferenceResult, StageLatency
from repro.workloads import Workload

#: Platform label used in results.
DFX_PLATFORM = "dfx"


def _running_sum(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...``, added left to right."""
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


def _stage_latency(
    cycles_by_tag: dict[str, np.ndarray],
    steps: slice,
    stage_seconds: float,
) -> StageLatency:
    """Convert a stage's token steps into a stage latency + breakdown.

    ``steps`` selects the stage's past lengths in a step table.  The per-phase
    breakdown distributes the stage's wall-clock time according to each
    phase's share of unit-occupancy cycles (overlap between units means
    occupancy does not sum exactly to the critical path, so shares are
    normalized before scaling).
    """
    stage_ms = stage_seconds * 1e3
    merged = {
        tag: _running_sum(0.0, cycles[steps]) for tag, cycles in cycles_by_tag.items()
    }
    accounted = sum(merged.values())
    if accounted <= 0:
        return StageLatency(latency_ms=stage_ms, breakdown_ms={})
    breakdown = {
        tag: stage_ms * cycles / accounted for tag, cycles in merged.items()
    }
    return StageLatency(latency_ms=stage_ms, breakdown_ms=breakdown)


class DFXAppliance:
    """The DFX server appliance: CPUs plus a homogeneous FPGA cluster."""

    def __init__(
        self,
        config: GPT2Config,
        num_devices: int = 4,
        spec: U280Spec = DEFAULT_U280,
        calibration: Calibration = DEFAULT_CALIBRATION,
        tiling: TilingConfig | None = None,
        check_capacity: bool = True,
    ) -> None:
        self.config = config
        self.num_devices = num_devices
        self.spec = spec
        self.calibration = calibration
        self.cluster = DFXCluster(
            config=config,
            num_devices=num_devices,
            spec=spec,
            calibration=calibration,
            tiling=tiling,
            check_capacity=check_capacity,
        )

    # ---------------------------------------------------------------------- run
    def run(self, workload: Workload) -> InferenceResult:
        """Simulate one text-generation request and return its result.

        Summarization: the prompt tokens stream through the same
        single-token (matrix-vector) datapath one after another — DFX has no
        batched matrix-matrix path, which is why the paper measures the same
        ~constant GFLOP/s in both stages (Fig. 17) and a summarization cost
        that grows linearly with the prompt length (Fig. 14).  Generation: one
        token per iteration with a growing KV cache.  The steps are past
        lengths ``0 .. total_tokens - 2`` of the step table, summed in order.
        """
        workload.check_fits(self.config)
        table = self.cluster.step_table()
        host_overhead = self.calibration.host_overhead_per_token_s
        prompt, steps = workload.input_tokens, workload.total_tokens - 1
        step_seconds = table.timing.total_cycles[:steps] / self.spec.kernel_frequency_hz
        flops = table.flops_per_device[:steps] * self.num_devices
        cycles_by_tag = table.timing.cycles_by_tag
        return InferenceResult(
            platform=DFX_PLATFORM,
            model_name=self.config.name,
            workload=workload,
            num_devices=self.num_devices,
            summarization=_stage_latency(
                cycles_by_tag,
                slice(0, prompt),
                _running_sum(host_overhead, step_seconds[:prompt]),
            ),
            generation=_stage_latency(
                cycles_by_tag,
                slice(prompt, steps),
                _running_sum(0.0, step_seconds[prompt:] + host_overhead),
            ),
            total_power_watts=self.cluster.total_power_watts(),
            flops=_running_sum(0.0, flops),
        )

    # ---------------------------------------------------------------- utilities
    def per_token_generation_seconds(self, context_length: int) -> float:
        """Latency of a single generation-stage iteration at a given context."""
        return self.cluster.token_step_seconds(rows=1, past_length=context_length)

    def batched_request_seconds(self, workload: Workload, batch: int) -> float:
        """Per-request latency when ``batch`` identical requests run as one
        lockstep cohort on the batched functional engine.

        Mirrors :meth:`run` step for step: the prompt streams through the
        single-token datapath position by position and every generation
        iteration advances the cohort by one token — but each step carries
        ``batch`` rows that share one weight stream, and the host hand-off is
        paid once per cohort step instead of once per stream.  All streams
        finish together, so the cohort's wall clock *is* the per-request
        latency.
        """
        workload.check_fits(self.config)
        table = self.cluster.step_table(batch=batch)
        host_overhead = self.calibration.host_overhead_per_token_s
        prompt, steps = workload.input_tokens, workload.total_tokens - 1
        step_seconds = table.timing.total_cycles[:steps] / self.spec.kernel_frequency_hz
        return _running_sum(
            host_overhead,
            np.concatenate((step_seconds[:prompt], step_seconds[prompt:] + host_overhead)),
        )

    def run_many(self, workloads: list[Workload]) -> list[InferenceResult]:
        """Run a list of workloads (the Fig. 14 grid) and return all results."""
        return [self.run(workload) for workload in workloads]

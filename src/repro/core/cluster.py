"""Homogeneous multi-FPGA cluster model (paper Sec. IV-B).

A cluster is a ring of identical FPGA devices, each carrying one compute core
and an even slice of the model.  Because every device executes the identical
instruction stream on identically sized slices, the cluster's step latency is
the step latency of any single device (synchronizations are already part of
each device's program), which is what this class exposes.
"""

from __future__ import annotations

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.compute_core import TokenStepTiming
from repro.core.device import FPGADevice, MemoryFootprint
from repro.core.tiling import TilingConfig
from repro.fpga.u280 import DEFAULT_U280, U280Spec
from repro.model.config import GPT2Config
from repro.parallel.partitioner import PartitionPlan, build_partition_plan


class DFXCluster:
    """A homogeneous cluster of ``num_devices`` FPGAs running one model."""

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
        self.plan: PartitionPlan = build_partition_plan(config, num_devices)
        # All devices are homogeneous: device 0 is representative for timing.
        self.representative_device = FPGADevice(
            config=config,
            plan=self.plan,
            device_id=0,
            spec=spec,
            calibration=calibration,
            tiling=tiling,
        )
        if check_capacity:
            self.representative_device.check_capacity()

    # --------------------------------------------------------------------- info
    def memory_footprint(self, max_tokens: int | None = None) -> MemoryFootprint:
        """Per-device memory footprint."""
        return self.representative_device.memory_footprint(max_tokens)

    @property
    def core(self):
        """The representative compute core (device 0)."""
        return self.representative_device.core

    # ------------------------------------------------------------------- timing
    def token_step(self, rows: int, past_length: int) -> TokenStepTiming:
        """Timing of one token step across the cluster.

        Devices run in lockstep (the ring syncs enforce it), so the cluster
        step time equals the representative device's step time.
        """
        return self.core.token_step(rows, past_length)

    def token_step_seconds(self, rows: int, past_length: int) -> float:
        """Seconds for one token step including the host hand-off."""
        return self.core.token_step_seconds(rows, past_length)

    def step_table(self, rows: int = 1, batch: int = 1) -> TokenStepTiming:
        """Token-step timings at every past length (see ``ComputeCore.step_table``)."""
        return self.core.step_table(rows, batch)

    def total_power_watts(self) -> float:
        """Accelerator power of the whole cluster."""
        return self.num_devices * self.spec.board_power_watts

    def cluster_flops_per_step(self, rows: int, past_length: int) -> float:
        """FLOPs performed by all devices for one step (model-level FLOPs)."""
        step = self.token_step(rows, past_length)
        return step.flops_per_device * self.num_devices

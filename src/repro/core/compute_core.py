"""One DFX compute core: compiler + functional units + timing scheduler.

A compute core is the per-FPGA accelerator of Fig. 7.  This class wires the
compiler (which knows the device's partition of the model) to the unit timing
models and the scheduler, and exposes per-step timings that the cluster and
appliance layers aggregate into end-to-end latencies.

Every token step replays the same instruction stream; only the KV length
grows (paper Sec. III, IV-C).  So each step shape is timed once, as a *step
table* over every past length: one template layer replayed with an array of
KV lengths, each element equal to the scalar replay at that length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.core.dma import DMAModel
from repro.core.mpu import MPUModel
from repro.core.router import RouterModel
from repro.core.scheduler import ProgramTiming, TimingScheduler
from repro.core.tiling import TilingConfig
from repro.core.vpu import VPUModel
from repro.errors import ConfigurationError
from repro.fpga.u280 import DEFAULT_U280, U280Spec
from repro.isa.compiler import DFXCompiler
from repro.model.config import GPT2Config
from repro.parallel.partitioner import PartitionPlan


@dataclass(frozen=True)
class TokenStepTiming:
    """Timing of one full token step (embedding + all layers + LM head).

    In a step table every field but ``rows`` is an array over past lengths.
    """

    rows: int
    past_length: int
    timing: ProgramTiming
    flops_per_device: float

    def seconds(self, frequency_hz: float) -> float:
        """Wall-clock seconds of the step."""
        return self.timing.seconds(frequency_hz)

    def at(self, past_length: int) -> "TokenStepTiming":
        """The step at ``past_length`` of a step table, as Python floats."""
        timing = self.timing

        def pick(values: dict) -> dict[str, float]:
            return {key: float(value[past_length]) for key, value in values.items()}

        return TokenStepTiming(
            rows=self.rows,
            past_length=past_length,
            timing=ProgramTiming(
                program_name=f"{timing.program_name}[past={past_length}]",
                total_cycles=float(timing.total_cycles[past_length]),
                cycles_by_tag=pick(timing.cycles_by_tag),
                cycles_by_unit=pick(timing.cycles_by_unit),
            ),
            flops_per_device=float(self.flops_per_device[past_length]),
        )


def _add_into(totals: dict, values: dict) -> None:
    """Add ``values`` into ``totals`` key by key (new keys keep their order)."""
    for key, value in values.items():
        totals[key] = totals.get(key, 0.0) + value


class ComputeCore:
    """Timing model of one DFX compute core executing its model partition."""

    def __init__(
        self,
        config: GPT2Config,
        plan: PartitionPlan,
        device_id: int = 0,
        spec: U280Spec = DEFAULT_U280,
        calibration: Calibration = DEFAULT_CALIBRATION,
        tiling: TilingConfig | None = None,
    ) -> None:
        self.config = config
        self.plan = plan
        self.device_id = device_id
        self.spec = spec
        self.calibration = calibration
        self.tiling = tiling or TilingConfig()
        self.compiler = DFXCompiler(config, plan, device_id)
        self.scheduler = TimingScheduler(
            mpu=MPUModel(tiling=self.tiling, spec=spec, calibration=calibration),
            vpu=VPUModel(spec=spec, calibration=calibration),
            dma=DMAModel(spec=spec, calibration=calibration),
            router=RouterModel(
                num_devices=plan.num_devices, spec=spec, calibration=calibration
            ),
        )
        self._step_tables: dict[tuple[int, int], TokenStepTiming] = {}

    # -------------------------------------------------------------- step tables
    def step_table(self, rows: int = 1, batch: int = 1) -> TokenStepTiming:
        """Token steps of ``batch`` lockstep streams of ``rows`` rows each, at
        every past length ``0 .. n_positions - 1`` (built once per shape)."""
        key = (rows, batch)
        if key not in self._step_tables:
            self._step_tables[key] = self._build_step_table(rows, batch)
        return self._step_tables[key]

    def _build_step_table(self, rows: int, batch: int) -> TokenStepTiming:
        """Embedding, ``n_layer`` identical layers and LM head, added in that order."""
        compiler = self.compiler
        past = np.arange(self.config.n_positions)
        if batch == 1:
            template = compiler.compile_decoder_layer(rows, 0)
        elif rows == 1:
            template = compiler.compile_batched_decoder_step(batch, 0)
        else:
            raise ConfigurationError("a cohort step carries one row per stream")
        programs = (
            compiler.compile_embedding(rows * batch),
            template.with_kv_length(past + rows),
            compiler.compile_batched_lm_head(batch),
        )
        embedding, layer, lm_head = (self.scheduler.time_program(p) for p in programs)
        embedding_flops, layer_flops, lm_head_flops = (p.total_flops() for p in programs)
        n_layer = self.config.n_layer
        tags, units = dict(embedding.cycles_by_tag), dict(embedding.cycles_by_unit)
        _add_into(tags, {tag: v * n_layer for tag, v in layer.cycles_by_tag.items()})
        _add_into(units, {unit: v * n_layer for unit, v in layer.cycles_by_unit.items()})
        _add_into(tags, lm_head.cycles_by_tag)
        _add_into(units, lm_head.cycles_by_unit)

        def full(value) -> np.ndarray:
            return np.broadcast_to(np.asarray(value, dtype=float), past.shape)

        return TokenStepTiming(
            rows=rows * batch,
            past_length=past,
            timing=ProgramTiming(
                program_name=f"step[rows={rows},batch={batch}]",
                total_cycles=full(embedding.total_cycles + layer.total_cycles * n_layer
                                  + lm_head.total_cycles),
                cycles_by_tag={tag: full(v) for tag, v in tags.items()},
                cycles_by_unit={unit: full(v) for unit, v in units.items()},
            ),
            flops_per_device=full(embedding_flops + layer_flops * n_layer + lm_head_flops),
        )

    def _step(self, rows: int, batch: int, past_length: int) -> TokenStepTiming:
        if not 0 <= past_length <= self.config.n_positions - rows:
            raise ConfigurationError(
                f"a {rows}-row step at past length {past_length} lies outside the "
                f"model's context window ({self.config.n_positions} tokens)"
            )
        return self.step_table(rows, batch).at(past_length)

    # -------------------------------------------------------------- token steps
    def token_step(self, rows: int, past_length: int) -> TokenStepTiming:
        """Timing of one full token step on this device.

        A step is: token embedding, ``n_layer`` identical decoder layers
        (timed once and scaled), and the LM head.
        """
        return self._step(rows, 1, past_length)

    def token_step_seconds(self, rows: int, past_length: int) -> float:
        """Seconds for one token step, including the host hand-off overhead."""
        step = self.token_step(rows, past_length)
        return step.seconds(self.spec.kernel_frequency_hz) + (
            self.calibration.host_overhead_per_token_s)

    def batched_token_step(self, batch: int, past_length: int) -> TokenStepTiming:
        """Timing of one lockstep cohort decode step (``batch`` streams).

        Every stream advances by one token: the embedding handles ``batch``
        rows, each decoder layer multicasts its weight stream across the
        cohort, and the LM head scores all last rows against one WTE pass.
        ``batch == 1`` is exactly :meth:`token_step` with one row.
        """
        return self._step(1, batch, past_length)

"""Calibrated analytical model of the cloud TPU baseline (paper Fig. 17).

The paper runs the 345M model with a 64:64 workload on a cloud TPU and reports
achieved GFLOP/s for the two stages: like the GPU, the TPU is efficient while
the prompt is processed in parallel and collapses in the token-by-token
generation stage (674.5 -> 8.2 GFLOP/s), because its systolic array is even
more dependent on large matrix operands and it adds per-step host/runtime
overhead.  The model below mirrors the GPU model's structure with
TPU-calibrated coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.specs import DEFAULT_TPU_V3, TPUSpec
from repro.errors import ConfigurationError
from repro.model.config import GPT2Config
from repro.results import InferenceResult, PHASE_FFN, PHASE_LM_HEAD, PHASE_SELF_ATTENTION, StageLatency
from repro.workloads import Workload

#: Platform label used in results.
TPU_PLATFORM = "tpu"


@dataclass(frozen=True)
class TPUCalibration:
    """Fitted coefficients of the TPU latency model.

    The per-layer step overhead is the dominant term: the XLA executable is
    re-invoked per generated token and pays dispatch, infeed, and outfeed
    costs that dwarf the actual matrix math at batch 1.
    """

    step_overhead_per_layer_ms: float = 3.45
    marginal_input_token_ms: float = 0.02
    marginal_input_tflops: float = 45.0
    lm_head_ms: float = 3.0


DEFAULT_TPU_CALIBRATION = TPUCalibration()


class TPUBaseline:
    """Analytical latency model of single-device TPU text generation."""

    def __init__(
        self,
        config: GPT2Config,
        spec: TPUSpec = DEFAULT_TPU_V3,
        calibration: TPUCalibration = DEFAULT_TPU_CALIBRATION,
    ) -> None:
        self.config = config
        self.spec = spec
        self.calibration = calibration
        self.num_devices = 1

    # ----------------------------------------------------------------- pieces
    def per_token_generation_ms(self) -> float:
        """Latency of one generation-stage iteration."""
        return (
            self.config.n_layer * self.calibration.step_overhead_per_layer_ms
            + self.calibration.lm_head_ms
        )

    def summarization_ms(self, input_tokens: int) -> float:
        """Latency of the summarization stage."""
        if input_tokens <= 0:
            raise ConfigurationError("input_tokens must be positive")
        cal = self.calibration
        flops_per_token = 2.0 * 12 * self.config.n_embd**2 * self.config.n_layer
        marginal_flop_ms = flops_per_token / (cal.marginal_input_tflops * 1e12) * 1e3
        return self.per_token_generation_ms() + (input_tokens - 1) * (
            cal.marginal_input_token_ms + marginal_flop_ms
        )

    def request_flops(self, workload: Workload) -> float:
        """Model FLOPs for one request (same accounting as the GPU model)."""
        emb = self.config.n_embd
        per_token_dense = 2.0 * 12 * emb * emb * self.config.n_layer
        lm_head = 2.0 * emb * self.config.vocab_size
        total = 0.0
        context = 0
        for _ in range(workload.input_tokens):
            context += 1
            total += per_token_dense + 4.0 * emb * context * self.config.n_layer
        total += lm_head
        for _ in range(workload.output_tokens - 1):
            context += 1
            total += per_token_dense + 4.0 * emb * context * self.config.n_layer
            total += lm_head
        return total

    # --------------------------------------------------------------------- run
    def run(self, workload: Workload) -> InferenceResult:
        """Model one text-generation request on the TPU."""
        workload.check_fits(self.config)
        summarization_ms = self.summarization_ms(workload.input_tokens)
        generation_ms = (workload.output_tokens - 1) * self.per_token_generation_ms()
        breakdown_summ = {
            PHASE_SELF_ATTENTION: summarization_ms * 0.5,
            PHASE_FFN: summarization_ms * 0.4,
            PHASE_LM_HEAD: summarization_ms * 0.1,
        }
        breakdown_gen = {
            PHASE_SELF_ATTENTION: generation_ms * 0.5,
            PHASE_FFN: generation_ms * 0.4,
            PHASE_LM_HEAD: generation_ms * 0.1,
        }
        return InferenceResult(
            platform=TPU_PLATFORM,
            model_name=self.config.name,
            workload=workload,
            num_devices=self.num_devices,
            summarization=StageLatency(summarization_ms, breakdown_summ),
            generation=StageLatency(generation_ms, breakdown_gen),
            total_power_watts=self.spec.average_power_watts,
            flops=self.request_flops(workload),
        )

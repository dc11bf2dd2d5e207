"""Tests for the DFX runtime (functional generation + simulated timing)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.model.config import GPT2_TEST_SMALL, GPT2_TEST_TINY
from repro.model.gpt2 import GPT2Model
from repro.model.numerics import FP16_DFX
from repro.model.weights import generate_weights
from repro.runtime import DFXRuntime
from repro.workloads import Workload


@pytest.fixture(scope="module")
def runtime():
    return DFXRuntime(GPT2_TEST_TINY, num_devices=2, seed=5)


class TestGeneration:
    def test_generation_matches_reference_model(self, runtime):
        reference = GPT2Model(runtime.weights, numerics=FP16_DFX)
        prompt = [11, 22, 33]
        cache = reference.new_cache()
        out = reference.forward(np.asarray(prompt), cache)
        expected = [out.next_token_id]
        for _ in range(3):
            out = reference.forward(np.asarray([expected[-1]]), cache)
            expected.append(out.next_token_id)

        generation = runtime.generate(prompt, max_new_tokens=4)
        assert generation.output_token_ids == expected

    def test_timing_attached_and_consistent_with_workload(self, runtime):
        generation = runtime.generate([1, 2, 3, 4], max_new_tokens=6)
        assert generation.workload == Workload(4, 6)
        assert generation.simulated_latency_ms > 0
        assert generation.simulated_tokens_per_second > 0
        assert generation.timing.platform == "dfx"

    def test_requests_are_independent(self, runtime):
        first = runtime.generate([5, 6, 7], max_new_tokens=3)
        second = runtime.generate([5, 6, 7], max_new_tokens=3)
        assert first.output_token_ids == second.output_token_ids

    def test_warm_simulator_compiles_decoder_step_once(self, runtime):
        runtime.generate([5, 6, 7], max_new_tokens=3)
        runtime.generate([8, 9], max_new_tokens=3)
        counts = runtime._simulator.compiler.compile_counts
        assert counts["decoder-step[device=0]"] == 1

    def test_batched_and_single_requests_share_one_simulator(self, runtime):
        single = runtime.generate([4, 5, 6], max_new_tokens=4)
        simulator = runtime._simulator
        batch = runtime.generate_batch([[4, 5, 6], [7, 8]], 4)
        assert runtime._simulator is simulator
        assert batch.output_token_ids[0] == single.output_token_ids
        assert runtime.generate([4, 5, 6], max_new_tokens=4).output_token_ids == (
            single.output_token_ids
        )

    def test_generate_text_round_trip(self, runtime):
        generation = runtime.generate_text("hello dfx appliance", max_new_tokens=3)
        assert generation.text is not None
        assert len(generation.output_token_ids) == 3
        assert len(generation.input_token_ids) == 3

    def test_estimate_only_accepts_paper_scale_workloads(self, runtime):
        result = runtime.estimate_only(Workload(64, 64))
        assert result.latency_ms > 0


class TestValidation:
    def test_empty_prompt_rejected(self, runtime):
        with pytest.raises(ExecutionError):
            runtime.generate([], max_new_tokens=2)

    def test_non_positive_new_tokens_rejected(self, runtime):
        with pytest.raises(ExecutionError):
            runtime.generate([1, 2], max_new_tokens=0)

    def test_mismatched_weights_rejected(self):
        wrong_weights = generate_weights(GPT2_TEST_SMALL, seed=0)
        with pytest.raises(ConfigurationError):
            DFXRuntime(GPT2_TEST_TINY, num_devices=2, weights=wrong_weights)

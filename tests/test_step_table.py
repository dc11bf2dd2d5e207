"""The vectorized step tables against the scalar replay, element by element.

A step table times one template decoder layer over every past length at once
(the compiler declares the fields that equal the KV length, and the scheduler
replays them as arrays).  Every element must equal, by ``==``, the scalar
replay of the program compiled at that past length: total cycles, the per-tag
and per-unit cycles (tag order included) and the FLOPs.
"""

import numpy as np
import pytest

from repro.core.appliance import DFXAppliance
from repro.core.cluster import DFXCluster
from repro.model.config import (
    GPT2_1_5B,
    GPT2_345M,
    GPT2_774M,
    GPT2_TEST_SMALL,
    GPT2_TEST_TINY,
)
from repro.results import InferenceResult, StageLatency
from repro.workloads import PAPER_WORKLOAD_GRID, Workload

#: Past lengths around tile (16, 64) and vector-width (64) boundaries, plus
#: both ends of the context window.
SAMPLED_PASTS = (0, 1, 14, 15, 16, 31, 62, 63, 64, 127, 128, 255, 500, 1022, 1023)


def _core(config, devices):
    return DFXCluster(config, num_devices=devices, check_capacity=False).core


def _pasts(config):
    return [past for past in SAMPLED_PASTS if past < config.n_positions]


def _layer(compiler, batch, past):
    if batch == 1:
        return compiler.compile_decoder_layer(1, past)
    return compiler.compile_batched_decoder_step(batch, past)


def _check_layer_rows(core, batch, pasts):
    template = _layer(core.compiler, batch, 0)
    arrays = template.with_kv_length(np.arange(core.config.n_positions) + 1)
    table, flops = core.scheduler.time_program(arrays), arrays.total_flops()
    for past in pasts:
        program = _layer(core.compiler, batch, past)
        scalar = core.scheduler.time_program(program)
        assert table.total_cycles[past] == scalar.total_cycles, past
        for name in ("cycles_by_tag", "cycles_by_unit"):
            rows, expected = getattr(table, name), getattr(scalar, name)
            assert list(rows) == list(expected)
            picked = {key: np.broadcast_to(value, flops.shape)[past]
                      for key, value in rows.items()}
            assert picked == expected, (name, past)
        assert flops[past] == program.total_flops(), past


class TestLayerTableMatchesScalarReplay:
    def test_every_past_length_on_1_5b_with_four_devices(self):
        core = _core(GPT2_1_5B, 4)
        _check_layer_rows(core, 1, range(GPT2_1_5B.n_positions))

    @pytest.mark.parametrize("config, devices", [
        (GPT2_345M, 1), (GPT2_345M, 2), (GPT2_345M, 4), (GPT2_774M, 4),
        (GPT2_TEST_TINY, 1), (GPT2_TEST_TINY, 2), (GPT2_TEST_SMALL, 4),
    ])
    def test_sampled_past_lengths(self, config, devices):
        _check_layer_rows(_core(config, devices), 1, _pasts(config))

    @pytest.mark.parametrize("batch", [2, 4, 8])
    @pytest.mark.parametrize("config, devices", [
        (GPT2_1_5B, 4), (GPT2_345M, 1), (GPT2_TEST_TINY, 2),
    ])
    def test_cohort_batches(self, config, devices, batch):
        _check_layer_rows(_core(config, devices), batch, _pasts(config))


# ------------------------------------------------------- scalar references
def _scalar_step(core, batch, past):
    """One token step timed and combined the scalar way: (cycles, tags, units, flops)."""
    compiler, scheduler = core.compiler, core.scheduler
    layer = _layer(compiler, batch, past)
    programs = (compiler.compile_embedding(batch), layer,
                compiler.compile_batched_lm_head(batch))
    embedding, body, head = (scheduler.time_program(p) for p in programs)
    n_layer = core.config.n_layer
    tags, units = dict(embedding.cycles_by_tag), dict(embedding.cycles_by_unit)
    for totals, values in (
        (tags, {tag: v * n_layer for tag, v in body.cycles_by_tag.items()}),
        (units, {unit: v * n_layer for unit, v in body.cycles_by_unit.items()}),
        (tags, head.cycles_by_tag),
        (units, head.cycles_by_unit),
    ):
        for key, value in values.items():
            totals[key] = totals.get(key, 0.0) + value
    cycles = embedding.total_cycles + body.total_cycles * n_layer + head.total_cycles
    flops = (programs[0].total_flops() + layer.total_flops() * n_layer
             + programs[2].total_flops())
    return cycles, tags, units, flops


def _stage(steps, seconds):
    merged = {}
    for _, tags, _, _ in steps:
        for tag, cycles in tags.items():
            merged[tag] = merged.get(tag, 0.0) + cycles
    accounted = sum(merged.values())
    stage_ms = seconds * 1e3
    if accounted <= 0:
        return StageLatency(latency_ms=stage_ms, breakdown_ms={})
    return StageLatency(
        latency_ms=stage_ms,
        breakdown_ms={tag: stage_ms * c / accounted for tag, c in merged.items()},
    )


def _scalar_run(appliance, workload, steps_cache):
    """``DFXAppliance.run`` as a loop over scalar token steps."""
    core = appliance.cluster.core
    frequency = appliance.spec.kernel_frequency_hz
    host = appliance.calibration.host_overhead_per_token_s
    steps = []
    for past in range(workload.total_tokens - 1):
        if past not in steps_cache:
            steps_cache[past] = _scalar_step(core, 1, past)
        steps.append(steps_cache[past])
    prompt = workload.input_tokens
    summarization_s = host
    for cycles, *_ in steps[:prompt]:
        summarization_s += cycles / frequency
    generation_s = 0.0
    for cycles, *_ in steps[prompt:]:
        generation_s += cycles / frequency + host
    flops = 0.0
    for *_, step_flops in steps:
        flops += step_flops * appliance.num_devices
    return InferenceResult(
        platform="dfx",
        model_name=appliance.config.name,
        workload=workload,
        num_devices=appliance.num_devices,
        summarization=_stage(steps[:prompt], summarization_s),
        generation=_stage(steps[prompt:], generation_s),
        total_power_watts=appliance.cluster.total_power_watts(),
        flops=flops,
    )


class TestStepTableMatchesScalarSteps:
    @pytest.mark.parametrize("batch", [1, 2, 4, 8])
    def test_step_rows(self, batch):
        core = _core(GPT2_345M, 2)
        table = core.step_table(batch=batch)
        for past in _pasts(GPT2_345M):
            cycles, tags, units, flops = _scalar_step(core, batch, past)
            step = core.batched_token_step(batch, past)
            assert step.timing.total_cycles == cycles == table.timing.total_cycles[past]
            assert list(step.timing.cycles_by_tag.items()) == list(tags.items())
            assert list(step.timing.cycles_by_unit.items()) == list(units.items())
            assert step.flops_per_device == flops

    @pytest.mark.parametrize("config", [GPT2_345M, GPT2_774M, GPT2_1_5B],
                             ids=lambda config: config.name)
    def test_figure14_grid_runs_equal_the_scalar_loop(self, config):
        appliance = DFXAppliance(config, num_devices=4)
        cache = {}
        for workload in PAPER_WORKLOAD_GRID:
            result = appliance.run(workload)
            expected = _scalar_run(appliance, workload, cache)
            assert result == expected, workload.label
            for stage in ("summarization", "generation"):
                assert (list(getattr(result, stage).breakdown_ms)
                        == list(getattr(expected, stage).breakdown_ms))

    def test_batched_request_seconds_equal_the_scalar_loop(self):
        appliance = DFXAppliance(GPT2_345M, num_devices=4)
        core = appliance.cluster.core
        frequency = appliance.spec.kernel_frequency_hz
        host = appliance.calibration.host_overhead_per_token_s
        workload = Workload(32, 16)
        for batch in (1, 4):
            expected = host
            for past in range(workload.total_tokens - 1):
                step_s = _scalar_step(core, batch, past)[0] / frequency
                expected += step_s if past < workload.input_tokens else step_s + host
            assert appliance.batched_request_seconds(workload, batch) == expected

"""Tests for the fast-path execution engine.

Covers the compiled-program cache (each distinct shape compiles at most once
per ``generate()``), immutability of cached programs under execution, the
bit-exactness contract between the linked fast path and the per-instruction
slow path, KV growth inside the functional cores, warm-cache reuse via
``reset_cache``, and input validation of the generation entry points.
"""

import math

import numpy as np
import pytest

from repro.core.functional import (
    BatchedKV,
    BatchedKVPool,
    DFXFunctionalSimulator,
    FunctionalCore,
    link_program,
)
from repro.errors import ExecutionError
from repro.isa.compiler import DFXCompiler
from repro.isa.instructions import MatrixInstruction
from repro.isa.opcodes import MatrixOpcode
from repro.model.config import GPT2_TEST_TINY
from repro.model.numerics import FP16_DFX
from repro.parallel.partitioner import build_partition_plan


@pytest.fixture()
def simulator(tiny_weights):
    return DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)


def _kv_arenas(simulator):
    """The KV arenas of device 0, layer 0 of the single-stream engine."""
    memory = simulator._engine.layer_cores[0][0].memory
    return [value for name, value in memory.items() if name.startswith("kv.")]


class TestProgramCache:
    def test_compile_at_most_once_per_shape_during_generate(self, simulator):
        simulator.generate([5, 111, 42], max_new_tokens=16)
        counts = simulator.compiler.compile_counts
        assert counts, "expected the compiler to record compilations"
        over_compiled = {name: n for name, n in counts.items() if n > 1}
        assert not over_compiled, f"recompiled program shapes: {over_compiled}"
        # The whole generation stage rides on one decode-step program.
        assert counts["decoder-step[device=0]"] == 1

    def test_cache_returns_identical_objects(self, simulator):
        compiler = simulator.compiler
        assert compiler.compile_decoder_layer(3, 5) is compiler.compile_decoder_layer(3, 5)
        assert compiler.compile_embedding(2) is compiler.compile_embedding(2)
        assert compiler.compile_lm_head() is compiler.compile_lm_head()
        assert compiler.compile_decoder_step() is compiler.compile_decoder_step()

    def test_distinct_shapes_get_distinct_programs(self, simulator):
        compiler = simulator.compiler
        assert compiler.compile_decoder_layer(1, 0) is not compiler.compile_decoder_layer(1, 1)
        assert compiler.compile_decoder_layer(2, 0) is not compiler.compile_decoder_layer(1, 0)

    def test_cached_programs_not_mutated_by_execution(self, simulator):
        compiler = simulator.compiler
        before = {
            "step": tuple(compiler.compile_decoder_step().instructions),
            "embedding": tuple(compiler.compile_embedding(3).instructions),
            "lm_head": tuple(compiler.compile_lm_head().instructions),
            "layer": tuple(compiler.compile_decoder_layer(3, 0).instructions),
        }
        simulator.forward(np.array([4, 8, 15]))
        simulator.forward(np.array([16]))
        after = {
            "step": tuple(compiler.compile_decoder_step().instructions),
            "embedding": tuple(compiler.compile_embedding(3).instructions),
            "lm_head": tuple(compiler.compile_lm_head().instructions),
            "layer": tuple(compiler.compile_decoder_layer(3, 0).instructions),
        }
        assert before == after

    def test_decode_step_has_no_mask_and_four_syncs(self, simulator):
        program = simulator.compiler.compile_decoder_step()
        assert program.sync_count() == 4
        masked = [
            instruction
            for instruction in program.matrix_instructions()
            if instruction.opcode is MatrixOpcode.MASKED_MM
        ]
        assert masked, "decode step still uses the MaskedMM datapath"
        assert all(not instruction.apply_mask for instruction in masked)

    def test_segments_are_memoized_until_append(self):
        plan = build_partition_plan(GPT2_TEST_TINY, 2)
        program = DFXCompiler(GPT2_TEST_TINY, plan, 0).compile_decoder_layer(1, 0)
        first = program.segments()
        assert program.segments() is first
        program.append(
            MatrixInstruction(
                MatrixOpcode.MM, dst="x", input_operand="hidden_out",
                weight_operand="w_ffn2", rows=1, in_dim=2, out_dim=2,
            )
        )
        assert program.segments() is not first


class TestFastSlowBitExactness:
    """Every stream of a linked cohort must match the slow path bit for bit."""

    STREAMS = 3

    def test_cohort_matches_per_stream_instruction_execution(self, tiny_weights, rng):
        # One device, so the identity sync handler preserves program widths.
        simulator = DFXFunctionalSimulator(tiny_weights, num_devices=1, numerics=FP16_DFX)
        weights = simulator._layer_memory[0][0]
        pool = BatchedKVPool(np.float32)
        pool.ensure(slots=self.STREAMS)
        fast = FunctionalCore(
            numerics=FP16_DFX, memory=dict(weights),
            slot_lo=0, slot_hi=self.STREAMS, kv_pool=pool,
        )
        slows = [
            FunctionalCore(numerics=FP16_DFX, memory=dict(weights))
            for _ in range(self.STREAMS)
        ]

        def sync_handler(sync, local):
            # Single-device stand-in: the gather is the identity.
            return FP16_DFX.cast(np.concatenate([local], axis=-1))

        compiler = simulator.compiler
        steps = [(compiler.compile_decoder_layer(4, 0), 4), (compiler.compile_decoder_step(), 1)]
        for program, rows in steps:
            # Three distinct hidden states: the prefill, then one decode step.
            hidden = rng.normal(
                size=(self.STREAMS, rows, GPT2_TEST_TINY.n_embd)
            ).astype(np.float16)
            fast.registers["hidden"] = hidden
            simulator._run_lockstep(link_program(program, FP16_DFX), [fast])
            for stream, slow in enumerate(slows):
                slow.registers["hidden"] = hidden[stream]
                for instruction in program.instructions:
                    slow.execute_instruction(instruction, sync_handler)
                where = f"{program.name} stream {stream}"

                assert set(slow.registers) <= set(fast.registers)
                for name, value in slow.registers.items():
                    np.testing.assert_array_equal(
                        fast.registers[name][stream], value,
                        err_msg=f"{where} register {name}",
                    )
                assert any(name.startswith("kv.") for name in slow.memory)
                for name, value in slow.memory.items():
                    actual = fast.memory[name]
                    if type(actual) is BatchedKV:
                        actual = actual.view(0, self.STREAMS)[stream]
                    elif name not in weights:
                        actual = actual[stream]
                    np.testing.assert_array_equal(
                        actual, value, err_msg=f"{where} memory {name}"
                    )

    def test_program_outputs_visible_on_every_core(self, simulator):
        simulator.forward(np.array([1, 2, 3]))
        for layer_cores in simulator._engine.layer_cores:
            outputs = [core.registers["hidden_out"] for core in layer_cores]
            for other in outputs[1:]:
                np.testing.assert_array_equal(outputs[0], other)


class TestKVGrowthInCores:
    def test_store_kv_uses_growable_buffers(self, simulator):
        simulator.forward(np.array([7, 8]))
        kv_buffers = _kv_arenas(simulator)
        assert kv_buffers, "expected KV buffers after a forward pass"
        assert all(isinstance(buffer, BatchedKV) for buffer in kv_buffers)
        assert all(buffer.lengths[0] == 2 for buffer in kv_buffers)

    def test_generate_reserves_full_capacity_up_front(self, simulator):
        simulator.generate([1, 2, 3], max_new_tokens=8)
        buffer = _kv_arenas(simulator)[0]
        assert buffer.capacity >= 3 + 8
        assert buffer.lengths[0] == 3 + 8 - 1  # last token is never fed back

    def test_reset_cache_keeps_capacity_and_matches_fresh_run(self, tiny_weights):
        warm = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        first = warm.generate([9, 10, 11], max_new_tokens=6)
        warm.reset_cache()
        assert warm.kv_cache_length == 0
        again = warm.generate([9, 10, 11], max_new_tokens=6)
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        assert again == first == fresh.generate([9, 10, 11], max_new_tokens=6)

    def test_warm_generate_reserves_existing_buffers(self, simulator):
        # A short run leaves small warm buffers; a longer run after
        # reset_cache must re-reserve them up front rather than doubling
        # inside the decode loop.
        simulator.generate([1, 2], max_new_tokens=2)
        simulator.reset_cache()
        simulator.generate([1, 2, 3], max_new_tokens=20)
        buffer = _kv_arenas(simulator)[0]
        assert buffer.capacity >= 23

    def test_bare_forward_loop_reallocates_logarithmically(self, simulator, tiny_weights):
        simulator.forward(np.array([1]))
        arena = _kv_arenas(simulator)[0]
        allocations = [arena.data]
        for token in range(2, 21):
            simulator.forward(np.array([token]))
            if arena.data is not allocations[-1]:
                allocations.append(arena.data)
        assert arena.lengths[0] == 20
        assert arena.capacity >= 20
        # Capacity doubles from the 8-row minimum: 8 -> 16 -> 32.
        assert len(allocations) - 1 <= math.ceil(math.log2(20 / 8))
        # Regrowth keeps every cached row: a run that never regrows caches
        # the same rows.
        reserved = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        reserved._engine.pool.ensure(capacity=20)
        for token in range(1, 21):
            reserved.forward(np.array([token]))
        for grown, kept in zip(_kv_arenas(simulator), _kv_arenas(reserved)):
            np.testing.assert_array_equal(grown.view(0, 1), kept.view(0, 1))


class TestKVArenas:
    """The slot arenas every engine keeps its KV cache in."""

    def test_per_slot_views_match_concatenation(self, rng):
        arena = BatchedKV(cols=4, dtype=np.dtype(np.float32), slots=3, capacity=0)
        blocks = []
        for rows in (2, 1, 1, 3):
            block = rng.normal(size=(3, rows, 4)).astype(np.float32)
            arena.ensure(3, int(arena.lengths[0]) + rows)
            arena.append(0, 3, block)
            blocks.append(block)
        expected = np.concatenate(blocks, axis=1)
        np.testing.assert_array_equal(arena.view(0, 3), expected)
        np.testing.assert_array_equal(arena.view(1, 2)[0], expected[1])

    def test_ensure_grows_and_keeps_contents(self, rng):
        arena = BatchedKV(cols=4, dtype=np.dtype(np.float32), slots=2, capacity=8)
        rows = rng.normal(size=(2, 5, 4)).astype(np.float32)
        arena.append(0, 2, rows)
        arena.ensure(slots=4, capacity=20)
        assert (arena.slots, arena.capacity) == (4, 20)
        assert arena.lengths.tolist() == [5, 5, 0, 0]
        np.testing.assert_array_equal(arena.view(0, 2), rows)

    def test_clear_slots_recycles_without_reallocating(self):
        pool = BatchedKVPool(np.float32)
        pool.ensure(slots=2, capacity=8)
        arena = pool.new_arena(4)
        arena.append(0, 2, np.ones((2, 5, 4), dtype=np.float32))
        buffer = arena.data
        pool.clear_slots(0, 2)
        assert arena.lengths.tolist() == [0, 0]
        arena.append(0, 2, np.zeros((2, 2, 4), dtype=np.float32))
        assert arena.data is buffer
        np.testing.assert_array_equal(arena.view(0, 2), np.zeros((2, 2, 4)))

    def test_copy_slots_moves_contents_and_lengths(self):
        pool = BatchedKVPool(np.float32)
        pool.ensure(slots=3, capacity=8)
        arena = pool.new_arena(2)
        arena.append(2, 3, np.full((1, 3, 2), 7.0, dtype=np.float32))
        pool.copy_slots(0, 2, 1)
        assert arena.lengths[0] == 3
        np.testing.assert_array_equal(arena.view(0, 1), np.full((1, 3, 2), 7.0))

    def test_shrink_releases_every_arena(self):
        pool = BatchedKVPool(np.float32)
        pool.ensure(slots=4, capacity=32)
        for cols in (4, 8):
            pool.new_arena(cols)
        assert pool.memory_bytes() == 4 * 32 * (4 + 8) * 4
        pool.shrink()
        assert pool.memory_bytes() == 0
        pool.ensure(slots=1)
        assert all(arena.slots == 1 for arena in pool.arenas)


class TestScatterOwnership:
    def test_scatter_allocates_once_then_writes_in_place(self):
        core = FunctionalCore(numerics=FP16_DFX)
        core.registers["probs"] = np.ones((1, 4), dtype=np.float16)
        core.memory["values"] = np.eye(4, dtype=np.float16)
        instruction = MatrixInstruction(
            MatrixOpcode.MM, dst="attn", input_operand="probs",
            weight_operand="values", rows=1, in_dim=4, out_dim=4,
            dst_col_offset=0, dst_total_cols=8,
        )
        core.execute_instruction(instruction)
        first_buffer = core.registers["attn"]
        second = MatrixInstruction(
            MatrixOpcode.MM, dst="attn", input_operand="probs",
            weight_operand="values", rows=1, in_dim=4, out_dim=4,
            dst_col_offset=4, dst_total_cols=8,
        )
        core.execute_instruction(second)
        # Exclusively-owned buffer is reused in place, both halves populated.
        assert core.registers["attn"] is first_buffer
        np.testing.assert_array_equal(
            core.registers["attn"][0, :4], core.registers["attn"][0, 4:]
        )

    def test_scatter_copies_foreign_buffers(self):
        core = FunctionalCore(numerics=FP16_DFX)
        foreign = np.zeros((1, 8), dtype=np.float16)
        core.registers["attn"] = foreign
        core.registers["probs"] = np.ones((1, 4), dtype=np.float16)
        core.memory["values"] = np.eye(4, dtype=np.float16)
        instruction = MatrixInstruction(
            MatrixOpcode.MM, dst="attn", input_operand="probs",
            weight_operand="values", rows=1, in_dim=4, out_dim=4,
            dst_col_offset=0, dst_total_cols=8,
        )
        core.execute_instruction(instruction)
        # The foreign array must not be mutated in place.
        np.testing.assert_array_equal(foreign, np.zeros((1, 8), dtype=np.float16))
        assert core.registers["attn"] is not foreign


class TestBatchedEngine:
    """The batched multi-stream engine vs the sequential oracle."""

    PROMPTS = [[1, 2, 3], [4, 5], [6, 7, 8, 9], [10, 11], [3, 1, 4]]
    BUDGETS = [5, 3, 7, 1, 4]

    def _sequential(self, tiny_weights, prompts, budgets):
        outputs = []
        for prompt, budget in zip(prompts, budgets):
            fresh = DFXFunctionalSimulator(
                tiny_weights, num_devices=2, numerics=FP16_DFX
            )
            outputs.append(fresh.generate(list(prompt), budget))
        return outputs

    def test_ragged_batch_bit_identical_to_sequential(self, simulator, tiny_weights):
        batched = simulator.generate_batch(self.PROMPTS, self.BUDGETS)
        assert batched == self._sequential(tiny_weights, self.PROMPTS, self.BUDGETS)

    def test_batch_of_one_matches_unbatched(self, simulator, tiny_weights):
        batched = simulator.generate_batch([[9, 10, 11]], 6)
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        assert batched == [fresh.generate([9, 10, 11], 6)]

    def test_batch_of_one_compiles_no_batched_programs(self, simulator):
        simulator.generate_batch([[1, 2, 3]], 4)
        batched_names = [
            name for name in simulator.compiler.compile_counts
            if name.startswith("batched-")
        ]
        assert not batched_names, batched_names

    def test_cohort_join_mid_decode(self, simulator, tiny_weights):
        session = simulator.batched_session()
        first = session.admit([1, 2, 3], 6)
        second = session.admit([7, 8, 9], 6)
        session.step()  # prefill both as one cohort
        session.step()
        late = session.admit([4, 5, 6], 4)
        session.step()  # late stream prefills while the cohort decodes
        # Equal prompt lengths mean equal pasts two steps later: one cohort.
        while session.step():
            if len(session.cohort_sizes) == 1 and session.active_streams == 3:
                break
        session.run()
        expected = self._sequential(
            tiny_weights, [[1, 2, 3], [7, 8, 9], [4, 5, 6]], [6, 6, 4]
        )
        assert [session.outputs(s) for s in (first, second, late)] == expected

    def test_cohorts_merge_when_pasts_equalize(self, simulator):
        session = simulator.batched_session()
        session.admit([1, 2], 8)
        session.admit([3, 4], 8)
        session.step()  # cohort of 2 prefills at past 2
        # A 3-token prompt prefills at past 3 — exactly where the existing
        # cohort lands after this step's decode, so the two must merge.
        session.admit([5, 6, 7], 6)
        session.step()
        assert session.active_streams == 3
        assert session.cohort_sizes == [3]

    def test_randomized_sweep_bit_identical(self, tiny_weights, rng):
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=2, numerics=FP16_DFX
        )
        for _ in range(3):
            count = int(rng.integers(2, 6))
            prompts = [
                rng.integers(
                    0, GPT2_TEST_TINY.vocab_size, size=int(rng.integers(1, 7))
                ).tolist()
                for _ in range(count)
            ]
            budgets = [int(rng.integers(1, 8)) for _ in range(count)]
            batched = simulator.generate_batch(prompts, budgets)
            assert batched == self._sequential(tiny_weights, prompts, budgets)

    def test_arena_buffers_reused_across_sessions(self, tiny_weights):
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=2, numerics=FP16_DFX
        )
        first = simulator.generate_batch(self.PROMPTS, self.BUDGETS)
        state = simulator._session_engine
        arenas_before = [id(arena.data) for arena in state.pool.arenas]
        bytes_before = simulator.batched_kv_memory_bytes
        again = simulator.generate_batch(self.PROMPTS, self.BUDGETS)
        assert again == first
        # Same-shaped rerun fits the warm arenas: no reallocation at all.
        assert [id(arena.data) for arena in state.pool.arenas] == arenas_before
        assert simulator.batched_kv_memory_bytes == bytes_before

    def test_reclaim_releases_arena_memory_and_stays_correct(self, tiny_weights):
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=2, numerics=FP16_DFX
        )
        first = simulator.generate_batch(self.PROMPTS, self.BUDGETS)
        assert simulator.batched_kv_memory_bytes > 0
        simulator.reclaim_batched_kv()
        assert simulator.batched_kv_memory_bytes == 0
        assert simulator.generate_batch(self.PROMPTS, self.BUDGETS) == first

    def test_batched_engine_leaves_unbatched_kv_untouched(self, tiny_weights):
        simulator = DFXFunctionalSimulator(
            tiny_weights, num_devices=2, numerics=FP16_DFX
        )
        sequential = simulator.generate([5, 6, 7], 4)
        length_before = simulator.kv_cache_length
        simulator.generate_batch(self.PROMPTS, self.BUDGETS)
        assert simulator.kv_cache_length == length_before
        simulator.reset_cache()
        assert simulator.generate([5, 6, 7], 4) == sequential


class TestLinkedProgramStructure:
    def test_link_is_memoized_per_numerics_and_sharing_key(self, simulator):
        program = simulator.compiler.compile_decoder_step()
        plain = link_program(program, FP16_DFX)
        assert link_program(program, FP16_DFX) is plain
        shared = link_program(
            program, FP16_DFX,
            frozenset(("hidden",)), simulator._replicated_layer_names,
        )
        assert shared is not plain
        assert link_program(
            program, FP16_DFX,
            frozenset(("hidden",)), simulator._replicated_layer_names,
        ) is shared

    def test_shared_prefix_covers_layernorm(self, simulator):
        program = simulator.compiler.compile_decoder_step()
        linked = link_program(
            program, FP16_DFX,
            frozenset(("hidden",)), simulator._replicated_layer_names,
        )
        # Segment 0 starts with LayerNorm 1 — replicated across devices, so
        # it must be hoisted into the shared prefix.
        first = linked.segments[0]
        assert first.prefix is not None
        assert "lnorm1" in first.shared_out


class TestRequestValidation:
    """Bad token ids and context overflows raise before any KV is written."""

    VOCAB = GPT2_TEST_TINY.vocab_size
    CONTEXT = GPT2_TEST_TINY.n_positions

    @pytest.mark.parametrize("prompt", [[-1, 5], [5, VOCAB]])
    def test_generate_rejects_ids_outside_vocabulary(self, simulator, prompt):
        with pytest.raises(ExecutionError, match="vocabulary"):
            simulator.generate(prompt, 2)
        assert simulator.kv_cache_length == 0

    @pytest.mark.parametrize("token", [-1, VOCAB])
    def test_forward_rejects_ids_outside_vocabulary(self, simulator, token):
        simulator.forward(np.array([1, 2]))
        with pytest.raises(ExecutionError, match="vocabulary"):
            simulator.forward(np.array([token]))
        assert simulator.kv_cache_length == 2

    def test_generate_rejects_context_overflow_up_front(self, simulator):
        # The last generated token is never fed back: a prompt one short of
        # the window plus two new tokens fits exactly, three do not.
        prompt = [1] * (self.CONTEXT - 1)
        with pytest.raises(ExecutionError, match="context"):
            simulator.generate(prompt, 3)
        assert simulator.kv_cache_length == 0
        assert len(simulator.generate(prompt, 2)) == 2
        assert simulator.kv_cache_length == self.CONTEXT

    def test_forward_rejects_context_overflow(self, simulator):
        simulator.forward(np.ones(self.CONTEXT, dtype=np.int64))
        with pytest.raises(ExecutionError, match="context"):
            simulator.forward(np.array([1]))
        assert simulator.kv_cache_length == self.CONTEXT

    @pytest.mark.parametrize("prompt", [[-3, 4], [4, VOCAB]])
    def test_generate_batch_rejects_ids_outside_vocabulary(self, simulator, prompt):
        with pytest.raises(ExecutionError, match="vocabulary"):
            simulator.generate_batch([[1, 2], prompt], 2)

    def test_admit_rejects_bad_requests_and_session_continues(self, simulator, tiny_weights):
        session = simulator.batched_session()
        kept = session.admit([1, 2, 3], 4)
        with pytest.raises(ExecutionError, match="vocabulary"):
            session.admit([self.VOCAB], 1)
        with pytest.raises(ExecutionError, match="context"):
            session.admit([1] * self.CONTEXT, 2)
        session.run()
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        assert session.outputs(kept) == fresh.generate([1, 2, 3], 4)

    def test_rejected_request_leaves_generation_unchanged(self, simulator, tiny_weights):
        with pytest.raises(ExecutionError):
            simulator.generate([2, -7], 3)
        fresh = DFXFunctionalSimulator(tiny_weights, num_devices=2, numerics=FP16_DFX)
        assert simulator.generate([9, 10], 5) == fresh.generate([9, 10], 5)

"""DFX compiler: lowers GPT-2 into DFX instruction programs (Algorithm 1).

The compiler is parameterized by a model configuration, a partition plan, and
a device id.  It emits, for that device:

* an **embedding program** (token embedding: WTE + WPE lookup and add);
* a **decoder-layer program** implementing Algorithm 1 with the device's
  partition (its attention heads and FC column slices), including the four
  ring synchronizations;
* an **LM-head program** (final LayerNorm, logits against the device's WTE
  slice, logits all-gather).

Buffer naming is *generic per layer*: weight operands are named ``w_query``,
``w_ffn1`` etc. and the executor binds them to the current layer's partitioned
weights.  This mirrors the hardware, where the layer number only changes the
HBM address the DMA streams from (paper Sec. V-A, "Controller").

The compiler also reproduces the paper's **Value-first reordering**
(Sec. V-B, "Transpose Scheme"): the Value projection is computed before Key
and Query so the DMA can hide the Value transpose behind the Key/Query
matrix-vector products.

Compiled programs are **memoized**: ``compile_decoder_layer`` caches on
``(rows, past_length)``, ``compile_embedding`` on ``rows``, and the LM-head
and decode-step programs are compiled once per compiler.  Callers must treat
returned programs as immutable (the functional and timing engines only read
them); mutate a copy via :meth:`Program.concatenate` instead.  For the
generation stage, :meth:`DFXCompiler.compile_decoder_step` emits a single
past-length-*independent* program: with one query row the causal mask can
never exclude a key, so the step program is shared by every token of a
``generate()`` call instead of recompiling per token (the hardware analogue:
the controller only changes the HBM base address between tokens, Sec. V-A).

Decoder-layer programs **declare their KV-length fields** (Query x Key^T
``out_dim``, four Softmax ``length`` fields, Score x Value ``in_dim``): nothing
else depends on the past length, so the timing model prices every past length
from one template (:meth:`Program.with_kv_length`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from repro.errors import CompilationError
from repro.isa.instructions import (
    DMAInstruction,
    Instruction,
    MatrixInstruction,
    RouterInstruction,
    VectorInstruction,
)
from repro.isa.opcodes import (
    DMAOpcode,
    MatrixOpcode,
    MemorySpace,
    RouterOpcode,
    VectorOpcode,
)
from repro.isa.program import Program
from repro.model.config import GPT2Config
from repro.parallel.partitioner import PartitionPlan
from repro.results import (
    PHASE_EMBEDDING,
    PHASE_FFN,
    PHASE_LAYERNORM,
    PHASE_LM_HEAD,
    PHASE_RESIDUAL,
    PHASE_SELF_ATTENTION,
    PHASE_SYNC,
)

#: Bytes per FP16 element; the whole datapath is half precision.
FP16_BYTES = 2

#: Buffer names used for the per-layer weight bindings.
LAYER_WEIGHT_BUFFERS: tuple[str, ...] = (
    "w_query", "b_query",
    "w_key", "b_key",
    "w_value", "b_value",
    "w_attn_proj", "b_attn_proj",
    "w_ffn1", "b_ffn1",
    "w_ffn2", "b_ffn2",
    "ln1_gamma", "ln1_beta",
    "ln2_gamma", "ln2_beta",
)

#: Buffer names used by the LM-head program.
LM_HEAD_WEIGHT_BUFFERS: tuple[str, ...] = (
    "wte_part", "ln_f_gamma", "ln_f_beta",
)

#: Buffer names staged by the host/DMA for the embedding program.
EMBEDDING_BUFFERS: tuple[str, ...] = ("wte_rows", "wpe_rows")


def kv_key_buffer(local_head: int) -> str:
    """Name of the HBM-resident Key cache for a device-local head index."""
    return f"kv.key.h{local_head}"


def kv_value_buffer(local_head: int) -> str:
    """Name of the HBM-resident Value cache for a device-local head index."""
    return f"kv.value.h{local_head}"


@dataclass(frozen=True)
class CompiledToken:
    """The three programs needed to process one token step on one device."""

    embedding: Program
    decoder_layer: Program
    lm_head: Program


class DFXCompiler:
    """Compile GPT-2 inference into per-device DFX programs."""

    def __init__(self, config: GPT2Config, plan: PartitionPlan, device_id: int = 0):
        if plan.config != config:
            raise CompilationError("partition plan was built for a different config")
        self.config = config
        self.plan = plan
        self.device_id = device_id
        self.partition = plan.device(device_id)
        # Program caches (see module docstring): compiled programs are shared
        # across calls and must not be mutated by callers.
        self._decoder_cache: dict[tuple[int, int], Program] = {}
        self._embedding_cache: dict[int, Program] = {}
        self._lm_head_cache: Program | None = None
        self._decoder_step_cache: Program | None = None
        self._batched_step_cache: dict[tuple[int, int], Program] = {}
        self._batched_lm_head_cache: dict[int, Program] = {}
        #: Number of *uncached* compilations per program key; tests assert the
        #: hot path compiles each distinct shape at most once.
        self.compile_counts: Counter[str] = Counter()

    # ------------------------------------------------------------------ helpers
    def _layer_norm(
        self,
        prefix: str,
        input_name: str,
        output_name: str,
        gamma: str,
        beta: str,
        rows: int,
        tag: str = PHASE_LAYERNORM,
    ) -> list[Instruction]:
        """Emit the vector-instruction sequence for one LayerNorm (Sec. IV-C)."""
        emb = self.config.n_embd
        eps = self.config.layer_norm_eps
        instructions: list[Instruction] = [
            VectorInstruction(VectorOpcode.LOAD, dst=f"{prefix}.gamma", src1=gamma,
                              length=emb, rows=1, tag=tag),
            VectorInstruction(VectorOpcode.LOAD, dst=f"{prefix}.beta", src1=beta,
                              length=emb, rows=1, tag=tag),
            VectorInstruction(VectorOpcode.ACCUM, dst=f"{prefix}.sum", src1=input_name,
                              length=emb, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.MUL, dst=f"{prefix}.mean", src1=f"{prefix}.sum",
                              immediate=1.0 / emb, length=1, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.SUB, dst=f"{prefix}.centered", src1=input_name,
                              src2=f"{prefix}.mean", length=emb, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.MUL, dst=f"{prefix}.squared",
                              src1=f"{prefix}.centered", src2=f"{prefix}.centered",
                              length=emb, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.ACCUM, dst=f"{prefix}.var_sum",
                              src1=f"{prefix}.squared", length=emb, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.MUL, dst=f"{prefix}.variance",
                              src1=f"{prefix}.var_sum", immediate=1.0 / emb,
                              length=1, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.ADD, dst=f"{prefix}.variance_eps",
                              src1=f"{prefix}.variance", immediate=eps,
                              length=1, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.RECIP_SQRT, dst=f"{prefix}.inv_std",
                              src1=f"{prefix}.variance_eps", length=1, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.MUL, dst=f"{prefix}.normalized",
                              src1=f"{prefix}.centered", src2=f"{prefix}.inv_std",
                              length=emb, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.MUL, dst=f"{prefix}.scaled",
                              src1=f"{prefix}.normalized", src2=f"{prefix}.gamma",
                              length=emb, rows=rows, tag=tag),
            VectorInstruction(VectorOpcode.ADD, dst=output_name,
                              src1=f"{prefix}.scaled", src2=f"{prefix}.beta",
                              length=emb, rows=rows, tag=tag),
        ]
        return instructions

    def _softmax(
        self,
        program: Program,
        prefix: str,
        score: str,
        score_max: str,
        output: str,
        rows: int,
        kv_len: int,
        tag: str = PHASE_SELF_ATTENTION,
    ) -> None:
        """Append Softmax as vector instructions (sub, exp, accum, recip, mul)."""

        def over_kv(opcode: VectorOpcode, dst: str, src1: str, src2: str | None = None):
            program.append(VectorInstruction(opcode, dst=dst, src1=src1, src2=src2,
                                             length=kv_len, rows=rows, tag=tag), "length")

        over_kv(VectorOpcode.SUB, f"{prefix}.shifted", score, score_max)
        over_kv(VectorOpcode.EXP, f"{prefix}.exp", f"{prefix}.shifted")
        over_kv(VectorOpcode.ACCUM, f"{prefix}.sum", f"{prefix}.exp")
        program.append(VectorInstruction(VectorOpcode.RECIP, dst=f"{prefix}.inv_sum",
                                         src1=f"{prefix}.sum", length=1, rows=rows, tag=tag))
        over_kv(VectorOpcode.MUL, output, f"{prefix}.exp", f"{prefix}.inv_sum")

    def _weight_load(self, buffer: str, elements: int, tag: str) -> DMAInstruction:
        """Prefetch a weight matrix from HBM into the DMA weight buffer."""
        return DMAInstruction(
            opcode=DMAOpcode.LOAD_WEIGHT,
            dst=f"dma.{buffer}",
            src=buffer,
            size_bytes=elements * FP16_BYTES,
            memory=MemorySpace.HBM,
            tag=tag,
        )

    def _sync(self, src: str, dst: str, payload_elements: int, rows: int) -> RouterInstruction:
        return RouterInstruction(
            opcode=RouterOpcode.SYNC,
            dst=dst,
            src=src,
            payload_elements=payload_elements,
            rows=rows,
            tag=PHASE_SYNC,
        )

    # --------------------------------------------------------------- embedding
    def compile_embedding(self, rows: int) -> Program:
        """Token embedding: add the staged WTE and WPE rows (paper Sec. II-A).

        The host stages ``wte_rows`` and ``wpe_rows`` (the rows selected by the
        current token IDs and positions) in DDR; the DMA brings them in and
        the VPU adds them.  Memoized per ``rows``.
        """
        if rows <= 0:
            raise CompilationError(f"rows must be positive, got {rows}")
        cached = self._embedding_cache.get(rows)
        if cached is not None:
            return cached
        program = self._build_embedding(rows)
        self._embedding_cache[rows] = program
        return program

    def _build_embedding(self, rows: int) -> Program:
        """Uncached embedding-program construction."""
        self.compile_counts[f"embedding[rows={rows}]"] += 1
        emb = self.config.n_embd
        program = Program(
            name=f"embedding[rows={rows}]",
            rows=rows,
            inputs=(),
            outputs=("hidden",),
        )
        row_bytes = rows * emb * FP16_BYTES
        program.extend([
            DMAInstruction(DMAOpcode.LOAD_EMBEDDING, dst="wte_vec", src="wte_rows",
                           size_bytes=row_bytes, memory=MemorySpace.DDR,
                           tag=PHASE_EMBEDDING),
            DMAInstruction(DMAOpcode.LOAD_EMBEDDING, dst="wpe_vec", src="wpe_rows",
                           size_bytes=row_bytes, memory=MemorySpace.DDR,
                           tag=PHASE_EMBEDDING),
            VectorInstruction(VectorOpcode.ADD, dst="hidden", src1="wte_vec",
                              src2="wpe_vec", length=emb, rows=rows,
                              tag=PHASE_EMBEDDING),
        ])
        return program

    # ------------------------------------------------------------ decoder layer
    def compile_decoder_layer(self, rows: int, past_length: int) -> Program:
        """Compile one decoder layer for this device (Algorithm 1).

        Args:
            rows: Number of token rows entering the layer (the context length
                in the summarization stage, 1 in the generation stage).
            past_length: KV-cache length before this step.

        Returns:
            A :class:`Program` whose input is ``hidden`` and output is
            ``hidden_out``, containing exactly four ring synchronizations.
            Memoized per ``(rows, past_length)``.
        """
        if rows <= 0:
            raise CompilationError(f"rows must be positive, got {rows}")
        if past_length < 0:
            raise CompilationError(f"past_length must be non-negative, got {past_length}")
        key = (rows, past_length)
        cached = self._decoder_cache.get(key)
        if cached is not None:
            return cached
        program = self._build_decoder_layer(rows, past_length, generation_step=False)
        self._decoder_cache[key] = program
        return program

    def compile_decoder_step(self) -> Program:
        """Compile the past-length-independent single-token decoder layer.

        In the generation stage every step processes exactly one query row, so
        the causal mask ``key <= query + past`` admits *all* cached keys: the
        masked matrix product is bit-identical with the mask elided.  All
        other instruction semantics are shape-polymorphic in the functional
        engine (matrix/vector operands take their true extents from the bound
        buffers), so one cached program serves every token of a generation
        run.  The static shape metadata (``out_dim``, vector ``length``,
        ``past_length``) is nominal (compiled at past 0).
        """
        if self._decoder_step_cache is None:
            self._decoder_step_cache = self._build_decoder_layer(
                rows=1, past_length=0, generation_step=True
            )
        return self._decoder_step_cache

    def compile_batched_decoder_step(self, batch: int, past_length: int) -> Program:
        """Decoder layer for one lockstep cohort decode step (timing model).

        Prices ``batch`` concurrent single-row generation steps executed as
        one cohort: every matrix/vector instruction carries ``batch`` rows,
        the shared layer weights are streamed once and multicast to all rows
        (``weight_reuse_rows=batch``), while the per-stream KV operands keep
        per-row streaming (each stream reads its own cache).  Shapes are exact
        per step, so — like :meth:`compile_decoder_layer` — this is keyed on
        ``(batch, past_length)``; the timing model compiles it once, at past
        0, as its step-table template.  The functional batched engine does
        not execute these programs; it runs the regular (per-stream-shaped)
        programs in batched linking mode.
        """
        if batch <= 0:
            raise CompilationError(f"batch must be positive, got {batch}")
        if past_length < 0:
            raise CompilationError(f"past_length must be non-negative, got {past_length}")
        if batch == 1:
            # A one-stream cohort is exactly the analytic per-step program.
            return self.compile_decoder_layer(1, past_length)
        key = (batch, past_length)
        cached = self._batched_step_cache.get(key)
        if cached is not None:
            return cached
        program = self._build_decoder_layer(
            rows=1, past_length=past_length, generation_step=True, batch=batch
        )
        self._batched_step_cache[key] = program
        return program

    def _build_decoder_layer(
        self, rows: int, past_length: int, generation_step: bool, batch: int = 1
    ) -> Program:
        """Uncached decoder-layer construction (see the public wrappers)."""
        config = self.config
        partition = self.partition
        emb = config.n_embd
        head_dim = config.head_dim
        kv_len = past_length + rows
        local_heads = partition.num_heads
        qkv_dim = partition.qkv_output_dim
        scale = 1.0 / math.sqrt(head_dim)
        total_rows = rows * batch

        if batch > 1:
            name = (
                f"batched-step[device={self.device_id},batch={batch},"
                f"past={past_length}]"
            )
        elif generation_step:
            name = f"decoder-step[device={self.device_id}]"
        else:
            name = f"decoder-layer[device={self.device_id},rows={rows},past={past_length}]"
        self.compile_counts[name] += 1
        program = Program(
            name=name,
            rows=total_rows,
            past_length=past_length,
            inputs=("hidden",),
            outputs=("hidden_out",),
        )

        # ---- LayerNorm 1 -----------------------------------------------------
        program.extend(
            self._layer_norm(
                "ln1", "hidden", "lnorm1", "ln1_gamma", "ln1_beta", total_rows
            )
        )

        # ---- Self-attention: QKV projections (Value first, Sec. V-B) --------
        projections = (
            ("value", "w_value", "b_value", "value_local"),
            ("key", "w_key", "b_key", "key_local"),
            ("query", "w_query", "b_query", "query_local"),
        )
        for label, weight, bias, destination in projections:
            program.append(self._weight_load(weight, emb * qkv_dim, PHASE_SELF_ATTENTION))
            program.append(
                MatrixInstruction(
                    MatrixOpcode.CONV1D,
                    dst=destination,
                    input_operand="lnorm1",
                    weight_operand=weight,
                    bias_operand=bias,
                    rows=total_rows,
                    in_dim=emb,
                    out_dim=qkv_dim,
                    weight_reuse_rows=batch,
                    tag=PHASE_SELF_ATTENTION,
                    comment=f"Conv1D for {label}",
                )
            )
            if label in ("value", "key"):
                cache_name = kv_value_buffer if label == "value" else kv_key_buffer
                for local_head in range(local_heads):
                    program.append(
                        DMAInstruction(
                            opcode=DMAOpcode.STORE_KV,
                            dst=cache_name(local_head),
                            src=destination,
                            size_bytes=total_rows * head_dim * FP16_BYTES,
                            memory=MemorySpace.HBM,
                            col_offset=local_head * head_dim,
                            col_count=head_dim,
                            tag=PHASE_SELF_ATTENTION,
                            comment=f"append {label} rows for local head {local_head}",
                        )
                    )

        # ---- Multi-head attention (per local head) ---------------------------
        for local_head in range(local_heads):
            score = f"score.h{local_head}"
            score_max = f"score_max.h{local_head}"
            probs = f"probs.h{local_head}"
            program.append(
                MatrixInstruction(
                    MatrixOpcode.MASKED_MM,
                    dst=score,
                    input_operand="query_local",
                    weight_operand=kv_key_buffer(local_head),
                    # Each stream reads its *own* cached keys, so the batched
                    # cohort gets no weight reuse here (weight_reuse_rows=1).
                    rows=total_rows,
                    in_dim=head_dim,
                    out_dim=kv_len,
                    # A single query row attends to every cached key, so the
                    # decode-step program elides the (no-op) mask entirely.
                    apply_mask=not generation_step,
                    mask_offset=past_length,
                    apply_redu_max=True,
                    redu_max_dst=score_max,
                    scale=scale,
                    input_col_offset=local_head * head_dim,
                    input_col_count=head_dim,
                    tag=PHASE_SELF_ATTENTION,
                    comment=f"Query x Key^T, local head {local_head}",
                ),
                "out_dim",
            )
            self._softmax(program, f"softmax.h{local_head}", score, score_max, probs,
                          total_rows, kv_len)
            program.append(
                MatrixInstruction(
                    MatrixOpcode.MM,
                    dst="attn_local",
                    input_operand=probs,
                    weight_operand=kv_value_buffer(local_head),
                    rows=total_rows,
                    in_dim=kv_len,
                    out_dim=head_dim,
                    dst_col_offset=local_head * head_dim,
                    dst_total_cols=local_heads * head_dim,
                    tag=PHASE_SELF_ATTENTION,
                    comment=f"Score x Value, local head {local_head}",
                ),
                "in_dim",
            )

        # ---- Sync 1: gather attention-head outputs ---------------------------
        program.append(self._sync("attn_local", "attn_full", emb, total_rows))

        # ---- Attention output projection + Sync 2 ----------------------------
        program.append(
            self._weight_load("w_attn_proj", emb * partition.attn_proj_output_dim,
                              PHASE_SELF_ATTENTION)
        )
        program.append(
            MatrixInstruction(
                MatrixOpcode.CONV1D,
                dst="c_attn_local",
                input_operand="attn_full",
                weight_operand="w_attn_proj",
                bias_operand="b_attn_proj",
                rows=total_rows,
                in_dim=emb,
                out_dim=partition.attn_proj_output_dim,
                weight_reuse_rows=batch,
                tag=PHASE_SELF_ATTENTION,
                comment="Conv1D for attention output",
            )
        )
        program.append(self._sync("c_attn_local", "c_attn", emb, total_rows))

        # ---- Residual 1 -------------------------------------------------------
        program.append(
            VectorInstruction(VectorOpcode.ADD, dst="resid1", src1="c_attn",
                              src2="hidden", length=emb, rows=total_rows,
                              tag=PHASE_RESIDUAL)
        )

        # ---- LayerNorm 2 ------------------------------------------------------
        program.extend(
            self._layer_norm(
                "ln2", "resid1", "lnorm2", "ln2_gamma", "ln2_beta", total_rows
            )
        )

        # ---- Feed-forward network + Syncs 3 and 4 -----------------------------
        ffn_dim = config.ffn_dim
        program.append(
            self._weight_load("w_ffn1", emb * partition.ffn1_output_dim, PHASE_FFN)
        )
        program.append(
            MatrixInstruction(
                MatrixOpcode.CONV1D,
                dst="ffn1_local",
                input_operand="lnorm2",
                weight_operand="w_ffn1",
                bias_operand="b_ffn1",
                rows=total_rows,
                in_dim=emb,
                out_dim=partition.ffn1_output_dim,
                weight_reuse_rows=batch,
                apply_gelu=True,
                tag=PHASE_FFN,
                comment="Conv1D + GELU (FFN expand)",
            )
        )
        program.append(self._sync("ffn1_local", "ffn1", ffn_dim, total_rows))

        program.append(
            self._weight_load("w_ffn2", ffn_dim * partition.ffn2_output_dim, PHASE_FFN)
        )
        program.append(
            MatrixInstruction(
                MatrixOpcode.CONV1D,
                dst="ffn2_local",
                input_operand="ffn1",
                weight_operand="w_ffn2",
                bias_operand="b_ffn2",
                rows=total_rows,
                in_dim=ffn_dim,
                out_dim=partition.ffn2_output_dim,
                weight_reuse_rows=batch,
                tag=PHASE_FFN,
                comment="Conv1D (FFN contract)",
            )
        )
        program.append(self._sync("ffn2_local", "ffn2", emb, total_rows))

        # ---- Residual 2 --------------------------------------------------------
        program.append(
            VectorInstruction(VectorOpcode.ADD, dst="hidden_out", src1="ffn2",
                              src2="resid1", length=emb, rows=total_rows,
                              tag=PHASE_RESIDUAL)
        )
        return program

    # ------------------------------------------------------------------ LM head
    def compile_lm_head(self) -> Program:
        """Final LayerNorm and LM head for the last token position.

        Only the last row of the decoder output feeds the LM head (paper
        Sec. II-A); each device scores its slice of the vocabulary against the
        transposed WTE and the logits are gathered for the argmax.  Compiled
        once per compiler (the program has no shape parameters).
        """
        if self._lm_head_cache is not None:
            return self._lm_head_cache
        self.compile_counts["lm-head"] += 1
        emb = self.config.n_embd
        vocab = self.config.vocab_size
        program = Program(
            name=f"lm-head[device={self.device_id}]",
            rows=1,
            inputs=("hidden_last",),
            outputs=("logits",),
        )
        program.extend(
            self._layer_norm("ln_f", "hidden_last", "final_norm",
                             "ln_f_gamma", "ln_f_beta", rows=1, tag=PHASE_LM_HEAD)
        )
        program.append(
            self._weight_load("wte_part", self.partition.vocab_rows * emb, PHASE_LM_HEAD)
        )
        program.append(
            MatrixInstruction(
                MatrixOpcode.MM,
                dst="logits_local",
                input_operand="final_norm",
                weight_operand="wte_part",
                rows=1,
                in_dim=emb,
                out_dim=self.partition.vocab_rows,
                transpose_weight=True,
                apply_redu_max=True,
                redu_max_dst="logits_local_max",
                tag=PHASE_LM_HEAD,
                comment="logits against the device's WTE slice",
            )
        )
        program.append(self._sync("logits_local", "logits", vocab, rows=1))
        program.append(
            DMAInstruction(
                opcode=DMAOpcode.STORE_OUTPUT,
                dst="output_token",
                src="logits",
                size_bytes=4,
                memory=MemorySpace.DDR,
                tag=PHASE_LM_HEAD,
                comment="write the selected token id back to DDR",
            )
        )
        self._lm_head_cache = program
        return program

    def compile_batched_lm_head(self, batch: int) -> Program:
        """LM head for a lockstep cohort: one WTE stream scores ``batch`` rows.

        Each stream contributes its last hidden row; the device streams its
        WTE slice once and multicasts it across the cohort
        (``weight_reuse_rows=batch``).  ``batch == 1`` returns the regular
        :meth:`compile_lm_head` program.
        """
        if batch <= 0:
            raise CompilationError(f"batch must be positive, got {batch}")
        if batch == 1:
            return self.compile_lm_head()
        cached = self._batched_lm_head_cache.get(batch)
        if cached is not None:
            return cached
        name = f"batched-lm-head[device={self.device_id},batch={batch}]"
        self.compile_counts[name] += 1
        emb = self.config.n_embd
        vocab = self.config.vocab_size
        program = Program(
            name=name,
            rows=batch,
            inputs=("hidden_last",),
            outputs=("logits",),
        )
        program.extend(
            self._layer_norm("ln_f", "hidden_last", "final_norm",
                             "ln_f_gamma", "ln_f_beta", rows=batch,
                             tag=PHASE_LM_HEAD)
        )
        program.append(
            self._weight_load("wte_part", self.partition.vocab_rows * emb, PHASE_LM_HEAD)
        )
        program.append(
            MatrixInstruction(
                MatrixOpcode.MM,
                dst="logits_local",
                input_operand="final_norm",
                weight_operand="wte_part",
                rows=batch,
                in_dim=emb,
                out_dim=self.partition.vocab_rows,
                transpose_weight=True,
                apply_redu_max=True,
                redu_max_dst="logits_local_max",
                weight_reuse_rows=batch,
                tag=PHASE_LM_HEAD,
                comment="logits against the device's WTE slice, all streams",
            )
        )
        program.append(self._sync("logits_local", "logits", vocab, rows=batch))
        program.append(
            DMAInstruction(
                opcode=DMAOpcode.STORE_OUTPUT,
                dst="output_token",
                src="logits",
                size_bytes=4 * batch,
                memory=MemorySpace.DDR,
                tag=PHASE_LM_HEAD,
                comment="write the selected token ids back to DDR",
            )
        )
        self._batched_lm_head_cache[batch] = program
        return program

    # ------------------------------------------------------------- full token
    def compile_token_step(self, rows: int, past_length: int) -> CompiledToken:
        """Compile the embedding, decoder-layer, and LM-head programs for one step."""
        return CompiledToken(
            embedding=self.compile_embedding(rows),
            decoder_layer=self.compile_decoder_layer(rows, past_length),
            lm_head=self.compile_lm_head(),
        )

"""Instruction dataclasses for the DFX ISA.

Instructions are symbolic: operands are *names* of buffers that live either in
the register file or in off-chip memory.  The same instruction objects are
consumed by three clients:

* the **functional interpreter** (``repro.core.functional``), which binds the
  names to NumPy arrays and executes the semantics;
* the **timing engine** (``repro.core.scheduler``), which uses the shape
  fields (``rows``, ``in_dim``, ``out_dim``, ``length``, ``size_bytes``) to
  compute cycle counts;
* the **validator** (``repro.isa.validation``), which checks def-before-use
  and shape consistency.

A shape field may also hold an integer array of KV lengths
(:meth:`Program.with_kv_length`); the timing engine then prices them all.

Every instruction carries a ``tag`` naming the model phase it belongs to
(self-attention, FFN, layernorm, residual, synchronization, ...), which is how
the latency breakdowns of Fig. 4 and Fig. 15 are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ProgramValidationError
from repro.isa.opcodes import (
    DMAOpcode,
    InstructionClass,
    MatrixOpcode,
    MemorySpace,
    RouterOpcode,
    VectorOpcode,
)
from repro.results import PHASE_OTHER


def _smallest(value):
    """An int shape field itself, or the smallest element of an array field."""
    return value.min() if isinstance(value, np.ndarray) else value


@dataclass(frozen=True)
class Instruction:
    """Common fields shared by every DFX instruction."""

    tag: str = field(default=PHASE_OTHER, kw_only=True)
    comment: str = field(default="", kw_only=True)

    @property
    def instruction_class(self) -> InstructionClass:
        raise NotImplementedError

    def source_operands(self) -> tuple[str, ...]:
        """Names of buffers read by this instruction."""
        raise NotImplementedError

    def destination_operands(self) -> tuple[str, ...]:
        """Names of buffers written by this instruction."""
        raise NotImplementedError

    def flops(self) -> float:
        """Floating-point operations performed by this instruction."""
        return 0.0


@dataclass(frozen=True)
class MatrixInstruction(Instruction):
    """A matrix-function-unit instruction (Conv1D, MaskedMM, MM).

    Attributes:
        opcode: Which matrix operation to perform.
        dst: Output buffer (register file).
        input_operand: Input vector/matrix buffer (register file).
        weight_operand: Weight / Key / Value buffer (streamed from memory).
        bias_operand: Optional bias buffer.
        rows: Number of token rows processed (n in summarization, 1 in
            generation).
        in_dim: Inner (contraction) dimension.
        out_dim: Output columns produced.
        transpose_weight: Multiply by the weight's transpose (LM head).
        apply_mask: Apply the causal mask (MaskedMM only).
        mask_offset: Number of already-cached positions (so row ``i`` of the
            query may attend to keys ``0 .. mask_offset + i``).
        apply_gelu: Run the SFU's GELU on the output (FFN first layer).
        apply_redu_max: Emit the per-row maximum into ``redu_max_dst``.
        redu_max_dst: Scalar register receiving the per-row maximum.
        scale: Optional scalar multiplied into the output (1/sqrt(head_dim)).
        input_col_offset / input_col_count: Column window of the input buffer
            actually consumed (used to pick one attention head's columns).
        dst_col_offset / dst_total_cols: Column window of the destination
            written (used by the SFU vectorizer to concatenate head outputs).
        weight_space: Memory space the weight operand is streamed from.
        weight_reuse_rows: Rows that share one streaming pass of the weight
            tiles.  The paper's appliance has no input batching, so every row
            re-streams the weights (``1``, the default, Sec. V-B).  The
            batched cohort engine multicasts one weight stream to all rows of
            a lockstep batch, which its timing programs express by setting
            this to the batch size; per-stream operands (the KV caches) keep
            ``1`` because each stream reads distinct cache rows.
    """

    opcode: MatrixOpcode
    dst: str
    input_operand: str
    weight_operand: str
    bias_operand: str | None = None
    rows: int = 1
    in_dim: int = 0
    out_dim: int = 0
    transpose_weight: bool = False
    apply_mask: bool = False
    mask_offset: int = 0
    apply_gelu: bool = False
    apply_redu_max: bool = False
    redu_max_dst: str | None = None
    scale: float | None = None
    input_col_offset: int = 0
    input_col_count: int | None = None
    dst_col_offset: int = 0
    dst_total_cols: int | None = None
    weight_space: MemorySpace = MemorySpace.HBM
    weight_reuse_rows: int = 1

    def __post_init__(self) -> None:
        if self.rows <= 0:
            raise ProgramValidationError(f"rows must be positive, got {self.rows}")
        if self.weight_reuse_rows < 1 or self.rows % self.weight_reuse_rows != 0:
            raise ProgramValidationError(
                f"weight_reuse_rows must divide rows, got "
                f"{self.weight_reuse_rows} for {self.rows} rows"
            )
        if _smallest(self.in_dim) <= 0 or _smallest(self.out_dim) <= 0:
            raise ProgramValidationError(
                f"matrix instruction needs positive dims, got {self.in_dim}x{self.out_dim}"
            )
        if self.apply_mask and self.opcode is not MatrixOpcode.MASKED_MM:
            raise ProgramValidationError("apply_mask is only valid for MASKED_MM")
        if self.apply_redu_max and not self.redu_max_dst:
            raise ProgramValidationError("apply_redu_max requires redu_max_dst")

    @property
    def instruction_class(self) -> InstructionClass:
        return InstructionClass.COMPUTE_MATRIX

    def source_operands(self) -> tuple[str, ...]:
        sources = [self.input_operand, self.weight_operand]
        if self.bias_operand:
            sources.append(self.bias_operand)
        return tuple(sources)

    def destination_operands(self) -> tuple[str, ...]:
        destinations = [self.dst]
        if self.redu_max_dst:
            destinations.append(self.redu_max_dst)
        return tuple(destinations)

    def weight_elements(self) -> int:
        """Number of weight elements streamed for this instruction."""
        return self.in_dim * self.out_dim

    def weight_bytes(self, bytes_per_element: int = 2) -> int:
        """Bytes of weights streamed from memory for this instruction."""
        return self.weight_elements() * bytes_per_element

    def flops(self) -> float:
        multiply_accumulate = 2.0 * self.rows * self.in_dim * self.out_dim
        bias = self.rows * self.out_dim * 1.0 if self.bias_operand else 0.0
        return multiply_accumulate + bias


@dataclass(frozen=True)
class VectorInstruction(Instruction):
    """A vector-function-unit instruction (elementwise / reduction / load / store).

    ``src2`` may name a vector of the same length, a scalar register, or be
    ``None`` when ``immediate`` supplies a scalar constant.
    """

    opcode: VectorOpcode
    dst: str
    src1: str
    src2: str | None = None
    immediate: float | None = None
    length: int = 1
    rows: int = 1

    def __post_init__(self) -> None:
        if _smallest(self.length) <= 0:
            raise ProgramValidationError(f"length must be positive, got {self.length}")
        if self.rows <= 0:
            raise ProgramValidationError(f"rows must be positive, got {self.rows}")
        binary_ops = {VectorOpcode.ADD, VectorOpcode.SUB, VectorOpcode.MUL}
        if self.opcode in binary_ops and self.src2 is None and self.immediate is None:
            raise ProgramValidationError(
                f"{self.opcode.value} needs either src2 or an immediate"
            )

    @property
    def instruction_class(self) -> InstructionClass:
        return InstructionClass.COMPUTE_VECTOR

    def source_operands(self) -> tuple[str, ...]:
        sources = [self.src1]
        if self.src2:
            sources.append(self.src2)
        return tuple(sources)

    def destination_operands(self) -> tuple[str, ...]:
        return (self.dst,)

    def flops(self) -> float:
        if self.opcode in (VectorOpcode.LOAD, VectorOpcode.STORE):
            return 0.0
        return self.rows * self.length * 1.0


@dataclass(frozen=True)
class DMAInstruction(Instruction):
    """A DMA transfer between off-chip memory and the core's buffers.

    ``col_offset`` / ``col_count`` select a column window of the source buffer
    (used when appending one attention head's Key/Value columns to the cache).
    """

    opcode: DMAOpcode
    dst: str
    src: str
    size_bytes: int = 0
    memory: MemorySpace = MemorySpace.HBM
    col_offset: int = 0
    col_count: int | None = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ProgramValidationError("size_bytes must be non-negative")
        if self.memory is MemorySpace.REGISTER:
            raise ProgramValidationError("DMA transfers target HBM or DDR")

    @property
    def instruction_class(self) -> InstructionClass:
        return InstructionClass.DMA

    def source_operands(self) -> tuple[str, ...]:
        return (self.src,)

    def destination_operands(self) -> tuple[str, ...]:
        return (self.dst,)


@dataclass(frozen=True)
class RouterInstruction(Instruction):
    """A ring-network synchronization (all-gather of per-device slices)."""

    opcode: RouterOpcode
    dst: str
    src: str
    payload_elements: int = 0
    rows: int = 1

    def __post_init__(self) -> None:
        if self.payload_elements <= 0:
            raise ProgramValidationError("payload_elements must be positive")
        if self.rows <= 0:
            raise ProgramValidationError("rows must be positive")

    @property
    def instruction_class(self) -> InstructionClass:
        return InstructionClass.ROUTER

    def source_operands(self) -> tuple[str, ...]:
        return (self.src,)

    def destination_operands(self) -> tuple[str, ...]:
        return (self.dst,)

    def payload_bytes(self, bytes_per_element: int = 2) -> int:
        """Full gathered payload size in bytes (per row)."""
        return self.payload_elements * self.rows * bytes_per_element


#: Union type alias used in signatures.
AnyInstruction = Instruction

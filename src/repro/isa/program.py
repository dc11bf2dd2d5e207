"""Program container: an ordered list of DFX instructions plus metadata.

Besides the raw instruction list, a :class:`Program` exposes a memoized
*segmented* view (:meth:`Program.segments`): the instruction stream split at
each router synchronization.  Lockstep executors consume this view once per
program instead of re-scanning the instruction list on every layer of every
token step.  The cache is keyed on the instruction count, so the append-only
construction idiom used by the compiler invalidates it naturally.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, NamedTuple

from repro.isa.instructions import (
    DMAInstruction,
    Instruction,
    MatrixInstruction,
    RouterInstruction,
    VectorInstruction,
)
from repro.isa.opcodes import InstructionClass


class ProgramSegment(NamedTuple):
    """A run of non-router instructions ending at ``sync`` (or program end).

    Unpacks as ``(instructions, sync)``; ``sync`` is ``None`` only for the
    final segment of a program that does not end with a synchronization.
    """

    instructions: tuple[Instruction, ...]
    sync: RouterInstruction | None


@dataclass
class Program:
    """An ordered sequence of instructions for one device.

    Attributes:
        name: Human-readable label, e.g. ``"decoder-layer[rows=1,past=64]"``.
        instructions: The instruction list, in program order.
        rows: Token rows processed by this program (1 in the generation stage).
        past_length: KV-cache length before this program runs.
        inputs: Buffer names expected to be live before execution.
        outputs: Buffer names holding the program's results.
        kv_fields: Instruction index -> names of its fields that equal the
            KV length (the cache length after this step's append).
    """

    name: str
    instructions: list[Instruction] = field(default_factory=list)
    rows: int = 1
    past_length: int = 0
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    kv_fields: dict[int, tuple[str, ...]] = field(default_factory=dict, repr=False)
    # Memoized derived views, keyed on len(instructions) so that the compiler's
    # append-only construction invalidates them.  Excluded from ==/repr.
    _segment_cache: tuple[int, tuple[ProgramSegment, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _link_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # ----------------------------------------------------------------- basics
    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def append(self, instruction: Instruction, *kv_fields: str) -> None:
        """Append one instruction; ``kv_fields`` name its fields that equal
        the KV length."""
        if kv_fields:
            self.kv_fields[len(self.instructions)] = kv_fields
        self.instructions.append(instruction)

    def extend(self, instructions: Iterable[Instruction]) -> None:
        """Append several instructions."""
        self.instructions.extend(instructions)

    def with_kv_length(self, kv_length) -> "Program":
        """A copy whose ``kv_fields`` hold ``kv_length`` (an int, or an int
        array that the scheduler then replays elementwise)."""
        instructions = list(self.instructions)
        for index, fields in self.kv_fields.items():
            changes = dict.fromkeys(fields, kv_length)
            instructions[index] = replace(instructions[index], **changes)
        return replace(self, instructions=instructions)

    # ------------------------------------------------------------------ views
    def segments(self) -> tuple[ProgramSegment, ...]:
        """The program split at router syncs, memoized.

        Each :class:`ProgramSegment` holds the instructions preceding one
        synchronization plus that sync; the final segment's ``sync`` is
        ``None`` when the program does not end with a router instruction.
        The result is cached and recomputed only when the instruction count
        changes (programs are built append-only), so hot loops may call this
        once per execution at no cost.
        """
        count = len(self.instructions)
        if self._segment_cache is not None and self._segment_cache[0] == count:
            return self._segment_cache[1]
        segments: list[ProgramSegment] = []
        current: list[Instruction] = []
        for instruction in self.instructions:
            if isinstance(instruction, RouterInstruction):
                segments.append(ProgramSegment(tuple(current), instruction))
                current = []
            else:
                current.append(instruction)
        segments.append(ProgramSegment(tuple(current), None))
        self._segment_cache = (count, tuple(segments))
        return self._segment_cache[1]

    def matrix_instructions(self) -> list[MatrixInstruction]:
        """All matrix-unit instructions, in order."""
        return [i for i in self.instructions if isinstance(i, MatrixInstruction)]

    def vector_instructions(self) -> list[VectorInstruction]:
        """All vector-unit instructions, in order."""
        return [i for i in self.instructions if isinstance(i, VectorInstruction)]

    def dma_instructions(self) -> list[DMAInstruction]:
        """All DMA instructions, in order."""
        return [i for i in self.instructions if isinstance(i, DMAInstruction)]

    def router_instructions(self) -> list[RouterInstruction]:
        """All router (synchronization) instructions, in order."""
        return [i for i in self.instructions if isinstance(i, RouterInstruction)]

    def by_tag(self, tag: str) -> list[Instruction]:
        """All instructions labeled with ``tag``."""
        return [i for i in self.instructions if i.tag == tag]

    # ------------------------------------------------------------------ stats
    def instruction_class_counts(self) -> dict[InstructionClass, int]:
        """Instruction count per class."""
        return dict(Counter(i.instruction_class for i in self.instructions))

    def tag_counts(self) -> dict[str, int]:
        """Instruction count per phase tag."""
        return dict(Counter(i.tag for i in self.instructions))

    def total_flops(self) -> float:
        """Total floating-point operations performed by the program."""
        return sum((i.flops() for i in self.instructions), 0.0)

    def total_weight_bytes(self) -> int:
        """Bytes of matrix weights streamed from memory by the program."""
        return sum(i.weight_bytes() for i in self.matrix_instructions())

    def sync_count(self) -> int:
        """Number of ring synchronizations in the program."""
        return len(self.router_instructions())

    def defined_buffers(self) -> set[str]:
        """Every buffer name written by some instruction."""
        names: set[str] = set()
        for instruction in self.instructions:
            names.update(instruction.destination_operands())
        return names

    def summary(self) -> str:
        """One-line summary used in logs and example output."""
        counts = self.instruction_class_counts()
        parts = ", ".join(
            f"{klass.value}={count}" for klass, count in sorted(counts.items(), key=lambda kv: kv[0].value)
        )
        return (
            f"{self.name}: {len(self.instructions)} instructions "
            f"({parts}), {self.total_flops() / 1e6:.2f} MFLOP"
        )

    def concatenate(self, other: "Program", name: str | None = None) -> "Program":
        """Return a new program running ``self`` then ``other``."""
        return Program(
            name=name or f"{self.name}+{other.name}",
            instructions=list(self.instructions) + list(other.instructions),
            rows=self.rows,
            past_length=self.past_length,
            inputs=self.inputs,
            outputs=other.outputs,
        )

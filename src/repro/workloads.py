"""Text-generation workload definitions.

A workload is an ``[input tokens : output tokens]`` pair (paper notation).
The evaluation grid of Fig. 14/16 sweeps input lengths {32, 64, 128} against
output lengths {1, 4, 16, 64, 256}; Sec. II-A motivates two service presets
(chatbot 50:50, article writing 50:150) which the examples use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Workload:
    """One text-generation request shape.

    Attributes:
        input_tokens: Length of the prompt (summarization-stage input).
        output_tokens: Number of tokens to generate (generation-stage output).
    """

    input_tokens: int
    output_tokens: int

    def __post_init__(self) -> None:
        if self.input_tokens <= 0:
            raise ConfigurationError(
                f"input_tokens must be positive, got {self.input_tokens}"
            )
        if self.output_tokens <= 0:
            raise ConfigurationError(
                f"output_tokens must be positive, got {self.output_tokens}"
            )

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``"[32:256]"``."""
        return f"[{self.input_tokens}:{self.output_tokens}]"

    @property
    def total_tokens(self) -> int:
        """Final context length (input plus generated tokens)."""
        return self.input_tokens + self.output_tokens

    def check_fits(self, config) -> None:
        """Refuse a request longer than ``config``'s context window (every
        appliance model checks it before pricing)."""
        if self.total_tokens > config.n_positions:
            raise ConfigurationError(
                f"workload {self.label} exceeds the model's context window "
                f"({config.n_positions} tokens)"
            )

    @property
    def generation_iterations(self) -> int:
        """Number of generation-stage iterations after the summarization pass.

        The summarization pass itself produces the first output token, so a
        request for ``output_tokens`` runs ``output_tokens - 1`` iterations.
        """
        return self.output_tokens - 1

    @property
    def input_output_ratio(self) -> float:
        """Input-to-output token ratio (the paper's 4:1 break-even metric)."""
        return self.input_tokens / self.output_tokens


#: Input lengths swept in the paper's evaluation (Fig. 14).
PAPER_INPUT_LENGTHS: tuple[int, ...] = (32, 64, 128)

#: Output lengths swept in the paper's evaluation (Fig. 14).
PAPER_OUTPUT_LENGTHS: tuple[int, ...] = (1, 4, 16, 64, 256)

#: The 15-point [input:output] grid used in Fig. 14 and Fig. 16.
PAPER_WORKLOAD_GRID: tuple[Workload, ...] = tuple(
    Workload(input_tokens, output_tokens)
    for input_tokens in PAPER_INPUT_LENGTHS
    for output_tokens in PAPER_OUTPUT_LENGTHS
)

#: Chatbot service preset: ~50 input tokens, ~50 output tokens (Sec. II-A).
CHATBOT_WORKLOAD = Workload(input_tokens=50, output_tokens=50)

#: Article-writing preset: up to 50 input tokens, up to 150 output tokens.
ARTICLE_WRITING_WORKLOAD = Workload(input_tokens=50, output_tokens=150)

#: Question answering: long context, short answer (Sec. II-A).
QUESTION_ANSWER_WORKLOAD = Workload(input_tokens=256, output_tokens=8)

#: Workload used for the scalability and GFLOPS studies (Fig. 17/18, Table II).
BALANCED_64_64_WORKLOAD = Workload(input_tokens=64, output_tokens=64)

#: Fig. 3 sweep: increasing input tokens (leftward) then output tokens (rightward).
FIGURE3_WORKLOADS: tuple[Workload, ...] = (
    Workload(128, 1),
    Workload(96, 1),
    Workload(64, 1),
    Workload(32, 1),
    Workload(32, 2),
    Workload(32, 3),
    Workload(32, 4),
)

"""Fig. 8 as a factorial slice of the general exploration engine.

The paper's tile-shape design-space exploration (Sec. V-B, Fig. 8) sweeps
the MPU tile (d, l) over the five power-of-two splits of 1024 MACs and
trades achieved multi-head-attention GFLOP/s against MPU LUT cost.  The
sweep rides the DSE engine as a one-dimension factorial space with a
two-objective evaluator.  ``repro.analysis.experiments.run_figure8`` is the
driver; its result applies the paper's selection rule, which picks (64, 16).

:class:`TilingEvaluator` scores each point with
:func:`~repro.core.tiling.multi_head_attention_gflops` and
:func:`~repro.fpga.resources.estimate_core_resources`; a regression test
pins the resulting (GFLOP/s, LUT) values of every point exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.tiling import TILE_DESIGN_POINTS, TilingConfig, multi_head_attention_gflops
from repro.dse.objectives import Objective, ObjectiveVector
from repro.dse.space import Candidate, Dimension, SearchSpace
from repro.errors import ConfigurationError
from repro.fpga.resources import estimate_core_resources
from repro.model.config import GPT2Config, from_preset

#: The two Fig. 8 axes: attention throughput up, MPU LUT cost down.
FIGURE8_OBJECTIVES = (
    Objective("mha_gflops", "max", "GFLOP/s"),
    Objective("mpu_lut", "min", "LUTs"),
)


def figure8_search_space(
    tile_points: tuple[tuple[int, int], ...] = TILE_DESIGN_POINTS,
) -> SearchSpace:
    """One ``tile`` dimension over the (d, l) design points, labelled dxl."""
    return SearchSpace(
        [Dimension("tile", {f"{d}x{l}": (d, l) for d, l in tile_points})]
    )


@dataclass(frozen=True)
class TilingEvaluator:
    """Scores a tile shape on MHA GFLOP/s and MPU LUTs (the Fig. 8 axes)."""

    config: str = "1.5b"
    kv_length: int = 64

    @property
    def objectives(self) -> tuple[Objective, ...]:
        return FIGURE8_OBJECTIVES

    def _config(self) -> GPT2Config:
        return from_preset(self.config)

    def evaluate(self, candidate: Candidate) -> ObjectiveVector:
        tile = candidate.get("tile")
        if tile is None:
            raise ConfigurationError(
                "the tiling evaluator needs a 'tile' dimension with (d, l) values"
            )
        d, l = tile  # type: ignore[misc]
        gflops = multi_head_attention_gflops(
            TilingConfig(d, l), self._config(), self.kv_length
        )
        lut = estimate_core_resources(d=d, l=l).components["mpu"].lut
        return ObjectiveVector(
            objectives=self.objectives, values=(gflops, float(lut))
        )

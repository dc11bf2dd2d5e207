"""Numeric execution modes for the functional GPT-2 substrate.

The accuracy experiment (paper Sec. VII-A) compares two FP16 pipelines that
differ only in their GELU implementation:

* the **GPU reference** pipeline: FP16 operators, tanh-approximation GELU;
* the **DFX** pipeline: FP16 operators, 2048-entry LUT GELU.

A third, full-precision mode is provided as a numeric gold standard for
quantization-error measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.model import gelu as gelu_module


@dataclass(frozen=True)
class Numerics:
    """A numeric execution mode: data type plus activation implementation.

    Attributes:
        name: Human-readable label used in reports.
        dtype: NumPy dtype activations and weights are rounded to.
        gelu: Callable implementing the GELU activation.
        accumulate_fp32: Whether matrix products accumulate in float32 before
            rounding back (models wide accumulators; both platforms do this).
    """

    name: str
    dtype: np.dtype
    gelu: Callable[[np.ndarray], np.ndarray]
    accumulate_fp32: bool = True

    def cast(self, array: np.ndarray) -> np.ndarray:
        """Round ``array`` to this mode's data type."""
        return np.asarray(array).astype(self.dtype)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product under this mode's precision rules."""
        if self.accumulate_fp32:
            result = np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)
        else:
            result = np.asarray(a, dtype=self.dtype) @ np.asarray(b, dtype=self.dtype)
        return result.astype(self.dtype)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise addition rounded to this mode's data type."""
        return (
            np.asarray(a, dtype=np.float32) + np.asarray(b, dtype=np.float32)
        ).astype(self.dtype)

    def activation(self, x: np.ndarray) -> np.ndarray:
        """Apply GELU and round to this mode's data type."""
        return self.gelu(np.asarray(x, dtype=np.float32)).astype(self.dtype)


#: Full-precision gold standard (not a paper platform).
FP32_EXACT = Numerics(
    name="fp32-exact", dtype=np.dtype(np.float32), gelu=gelu_module.gelu_exact
)

#: GPU baseline numerics: FP16 with tanh-approximation GELU.
FP16_GPU = Numerics(
    name="fp16-gpu", dtype=np.dtype(np.float16), gelu=gelu_module.gelu_tanh
)

#: DFX numerics: FP16 with the SFU's lookup-table GELU.
FP16_DFX = Numerics(
    name="fp16-dfx", dtype=np.dtype(np.float16), gelu=gelu_module.gelu_lut
)

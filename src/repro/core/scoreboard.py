"""Scoreboard: tracks when each named buffer becomes available.

The hardware scoreboard (paper Sec. V-A) marks register-file addresses with
``stale`` / ``valid`` bits so chained instructions stall only on true data
hazards.  The timing simulator's scoreboard does the continuous-time
equivalent: it records the cycle at which each destination buffer is valid and
answers "when are all my sources ready?" for the next instruction.  Ready
times are floats, or arrays over KV lengths when a step table is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np


def maximum(a, b):
    """``max(a, b)``, elementwise when either is an array (scalars stay Python)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


@dataclass
class Scoreboard:
    """Tracks buffer-ready times (in cycles) during timing simulation."""

    ready_cycles: dict[str, float] = field(default_factory=dict)

    def mark_live_in(self, buffers: Iterable[str], at_cycle: float = 0.0) -> None:
        """Declare buffers that are already valid before the program starts."""
        for name in buffers:
            self.ready_cycles[name] = at_cycle

    def ready_time(self, buffers: Iterable[str]) -> float:
        """Cycle at which every buffer in ``buffers`` is valid.

        Buffers the scoreboard has never seen (off-chip weights, constants)
        are treated as always ready — their transfer cost is charged by the
        DMA/matrix models, not by a dependency stall.
        """
        latest = 0.0
        for name in buffers:
            latest = maximum(latest, self.ready_cycles.get(name, 0.0))
        return latest

    def mark_written(self, buffers: Iterable[str], at_cycle: float) -> None:
        """Record that ``buffers`` become valid at ``at_cycle``.

        A buffer that is rewritten keeps the *latest* ready time, mirroring
        write-after-write ordering through the register file.
        """
        for name in buffers:
            current = self.ready_cycles.get(name, 0.0)
            self.ready_cycles[name] = maximum(current, at_cycle)

    def snapshot(self) -> dict[str, float]:
        """Copy of the current ready-time table (for inspection in tests)."""
        return dict(self.ready_cycles)

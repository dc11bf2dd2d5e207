"""Off-chip memory capacity: the per-device Key/Value cache footprint.

The DFX dataflow is dominated by streaming weight tiles from HBM (timed by
:mod:`repro.core.dma`); HBM also holds each device's Key/Value cache, whose
size this module computes.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def kv_cache_bytes(
    n_layer: int, n_head_local: int, head_dim: int, max_tokens: int, bytes_per_element: int = 2
) -> int:
    """HBM bytes needed for one device's Key+Value cache at ``max_tokens``."""
    if min(n_layer, n_head_local, head_dim, max_tokens) < 0:
        raise ConfigurationError("kv cache dimensions must be non-negative")
    per_layer = 2 * n_head_local * max_tokens * head_dim * bytes_per_element
    return n_layer * per_layer

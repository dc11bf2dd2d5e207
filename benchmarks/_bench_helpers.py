"""Shared helpers for the benchmark harness (imported by every bench module).

Each benchmark module times a driver or simulator under ``pytest-benchmark``
and prints the rows it produces.  The paper's published values live in
``repro.analysis.claims`` and are checked in tier-1, not here.
"""

from __future__ import annotations

from typing import Callable


def run_once(benchmark, function: Callable, *args, **kwargs):
    """Benchmark a (potentially slow) experiment driver with a single round."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def print_header(title: str) -> None:
    """Print a section header so benchmark output reads like the paper."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)

#!/usr/bin/env python3
"""Regenerate ``pins.json``: the default seed's outputs every run checks.

Run it (``python3 perfbench/pins.py``) only when a deliberate change moves a
pinned number, and say so where the change is recorded.  Before writing, it
cross-checks each pin against an independent computation:

- serve-stream: the same trace served with retained records gives the exact
  order statistics; each sketch percentile is pinned as the band of exact
  values within ``rank_error_bound() + 1`` ranks of its target rank;
- decode: every stream's tokens from the functional simulator must equal
  the reference GPT-2 ``TextGenerator`` and the batched session;
- paper-claims: the values are the drivers' outputs, bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

from repro.core.functional import DFXFunctionalSimulator  # noqa: E402
from repro.model.generation import TextGenerator  # noqa: E402
from repro.model.gpt2 import GPT2Model  # noqa: E402
from repro.model.numerics import FP16_DFX  # noqa: E402
from repro.model.weights import generate_weights  # noqa: E402
from repro.serving import ApplianceServer  # noqa: E402

from workloads import (  # noqa: E402
    CLAIMS, DEFAULT_SEED, DRIVERS, PINS_PATH, Decode, ServeFleet, ServeStream,
    fidelity_max_err_pct, token_digest,
)


def _split(values: dict, exact: tuple[str, ...]) -> dict:
    """Integer counts and order statistics are pinned exactly, float sums
    to ``workloads.SUM_RTOL``."""
    return {
        "exact": {key: values[key] for key in exact},
        "sums": {key: value for key, value in values.items() if key not in exact},
    }


def _rank_band(exact_sorted: np.ndarray, percentile: float, sketch) -> dict:
    count = exact_sorted.size
    target = 1.0 + percentile / 100.0 * (count - 1)
    slack = sketch.rank_error_bound() + 1.0
    lo = max(1, math.floor(target - slack))
    hi = min(count, math.ceil(target + slack))
    return {"lo": float(exact_sorted[lo - 1]), "hi": float(exact_sorted[hi - 1]),
            "ranks": [lo, hi]}


def serve_stream_pins() -> dict:
    workload = ServeStream()
    trace = lambda: workload.lazy_trace(DEFAULT_SEED, workload.REQUESTS_PER_PASS)  # noqa: E731
    streaming = ApplianceServer("dfx", num_clusters=workload.NUM_CLUSTERS,
                                retain_records=False).serve(trace())
    retained = ApplianceServer("dfx", num_clusters=workload.NUM_CLUSTERS,
                               retain_records=True).serve(trace())
    values = workload.read(streaming)
    bands = {
        "response_p50_s": (50, "response_time_s", streaming.stats.response),
        "response_p99_s": (99, "response_time_s", streaming.stats.response),
        "queueing_p99_s": (99, "queueing_delay_s", streaming.stats.queueing),
    }
    rank_bands = {}
    for key, (percentile, field, sketch) in bands.items():
        exact = np.sort([getattr(record, field) for record in retained.completed])
        rank_bands[key] = _rank_band(exact, percentile, sketch)
        values.pop(key)
    pins = _split(values, ("completed", "abandoned", "failed", "offered",
                           "output_tokens", "batches", "makespan_s"))
    pins["rank_bands"] = rank_bands
    if retained.num_requests != values["completed"]:
        raise SystemExit("serve-stream: streaming and retained runs disagree")
    return pins


def serve_fleet_pins() -> dict:
    workload = ServeFleet()
    report = workload.build_fleet(DEFAULT_SEED).serve(workload.build_trace(DEFAULT_SEED))
    return _split(workload.read(report), (
        "completed", "abandoned", "failed", "offered", "retries", "batches",
        "cross_rack_dispatches", "slo_violations", "response_p50_s",
        "response_p95_s", "response_p99_s", "chat_p99_s", "article_p99_s",
        "makespan_s",
    ))


def decode_pins() -> dict:
    workload = Decode()
    prompts, budgets = workload.inputs(DEFAULT_SEED)
    weights = generate_weights(workload.CONFIG, seed=workload.WEIGHTS_SEED)
    simulator = DFXFunctionalSimulator(weights, num_devices=workload.NUM_DEVICES,
                                       numerics=FP16_DFX)
    reference = TextGenerator(GPT2Model(weights, numerics=FP16_DFX))
    single = []
    for prompt, budget in zip(prompts, budgets):
        tokens = simulator.generate(prompt, budget)
        simulator.reset_cache()
        expected = reference.generate_tokens(prompt, max_new_tokens=budget).output_token_ids
        if tokens != list(expected):
            raise SystemExit("decode: functional simulator disagrees with TextGenerator")
        single.append(tokens)
    if simulator.generate_batch(prompts, budgets) != single:
        raise SystemExit("decode: batched generation disagrees with single-stream")
    return {"prompt_lengths": [len(prompt) for prompt in prompts], "budgets": budgets,
            "digests": [token_digest(tokens) for tokens in single]}


def paper_claims_pins() -> dict:
    values = {}
    for driver, claims in CLAIMS.items():
        result = DRIVERS[driver]()
        for claim, extract, _ in claims:
            values[claim] = extract(result)
    return {"values": values, "fidelity_max_err_pct": fidelity_max_err_pct(values)}


def main() -> int:
    pins = {
        "seed": DEFAULT_SEED,
        "serve-stream": serve_stream_pins(),
        "serve-fleet": serve_fleet_pins(),
        "decode": decode_pins(),
        "paper-claims": paper_claims_pins(),
    }
    PINS_PATH.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {PINS_PATH.relative_to(BENCH_DIR.parent)} "
          f"(fidelity_max_err_pct {pins['paper-claims']['fidelity_max_err_pct']:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

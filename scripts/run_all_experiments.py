"""Run every paper experiment and print a compact paper-vs-measured report.

This is the script used to populate EXPERIMENTS.md.  It exercises the same
experiment drivers as the benchmark harness but without pytest, so it can be
run directly:

    python scripts/run_all_experiments.py
    python scripts/run_all_experiments.py --section "figure 1"
    python scripts/run_all_experiments.py --list

Each section runs independently: a section that raises prints its traceback
and the script continues, exiting non-zero at the end if anything failed —
so CI sees a red run without one broken driver masking the rest.
``--section TEXT`` runs only the sections whose title contains TEXT
(case-insensitive), letting CI run slices instead of all-or-nothing.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import Callable

from repro.analysis import experiments
from repro.analysis.metrics import average_latency_ms
from repro.results import (
    PHASE_FFN,
    PHASE_LAYERNORM,
    PHASE_RESIDUAL,
    PHASE_SELF_ATTENTION,
    PHASE_SYNC,
)


def section_table1() -> None:
    for row in experiments.run_table1():
        print(f"{row['model']}: {row['parameters'] / 1e6:.0f}M params, "
              f"emb {row['embedding_dimension']}, heads {row['attention_heads']}, "
              f"head dim {row['head_dimension']}, layers {row['layers']}")


def section_figure3() -> None:
    fig3 = experiments.run_figure3()
    print(f"marginal output-token cost: {fig3.marginal_output_token_ms:.2f} ms (paper 75.45)")
    print(f"marginal input-token cost : {fig3.marginal_input_token_ms:.3f} ms (paper 0.02)")


def section_figure4() -> None:
    fig4 = experiments.run_figure4()
    print("latency fractions:", {k: round(v, 3) for k, v in fig4.latency_fractions.items()})
    print("operation fractions:", {k: round(v, 4) for k, v in fig4.operation_fractions.items()})


def section_figure8() -> None:
    fig8 = experiments.run_figure8()
    print("MHA GFLOP/s:", {k: round(v, 1) for k, v in fig8.mha_gflops.items()})
    print("Pareto front:", fig8.front_points())
    print("chosen point:", fig8.cheapest_best_point())


def section_figure13() -> None:
    fig13 = experiments.run_figure13()
    totals = fig13.utilization()["total"]
    print({k: f"{100 * v:.1f}%" for k, v in totals.items()})


def section_figure14() -> None:
    fig14 = experiments.run_figure14()
    for column in fig14.columns:
        gpu_avg = average_latency_ms([row.baseline for row in column.rows])
        dfx_avg = average_latency_ms([row.dfx for row in column.rows])
        print(f"{column.setup.label}: GPU avg {gpu_avg:.0f} ms, DFX avg {dfx_avg:.0f} ms, "
              f"speedup {column.average_speedup:.2f}x")
        print("  per-workload DFX ms:",
              [round(row.dfx.latency_ms, 1) for row in column.rows])


def section_figure15() -> None:
    fig15 = experiments.run_figure15()
    order = (PHASE_SELF_ATTENTION, PHASE_FFN, PHASE_SYNC, PHASE_LAYERNORM, PHASE_RESIDUAL)
    print({phase: f"{100 * fig15.fractions[phase]:.1f}%" for phase in order})


def section_figure16() -> None:
    fig16 = experiments.run_figure16()
    print(f"throughput gain: {fig16.throughput_gain:.2f}x (paper 3.78)")
    print(f"energy-efficiency gain: {fig16.energy_efficiency_gain:.2f}x (paper 3.99)")


def section_figure17() -> None:
    fig17 = experiments.run_figure17()
    for stage in (fig17.gpu, fig17.tpu, fig17.dfx):
        print(f"{stage.platform:>14s}: summarization {stage.summarization_gflops:7.1f}, "
              f"generation {stage.generation_gflops:7.1f}, total {stage.total_gflops:7.1f}")


def section_figure18() -> None:
    fig18 = experiments.run_figure18()
    for count, tokens in zip(fig18.device_counts, fig18.tokens_per_second):
        print(f"{count} FPGA(s): {tokens:.2f} tokens/s")
    print("scaling factors:", [round(f, 2) for f in fig18.scaling_factors()])


def section_table2() -> None:
    table2 = experiments.run_table2()
    print(f"GPU: {table2.gpu.tokens_per_second:.2f} tokens/s, "
          f"${table2.gpu.accelerator_cost_usd:,.0f}, "
          f"{table2.gpu.tokens_per_second_per_million_usd:.1f} tokens/s/M$")
    print(f"DFX: {table2.dfx.tokens_per_second:.2f} tokens/s, "
          f"${table2.dfx.accelerator_cost_usd:,.0f}, "
          f"{table2.dfx.tokens_per_second_per_million_usd:.1f} tokens/s/M$")
    print(f"cost-effectiveness gain: {table2.cost_effectiveness_gain:.2f}x (paper 8.21)")


def section_accuracy() -> None:
    for comparison in experiments.run_accuracy_comparison():
        print(f"{comparison.dataset_name}: GPU {100 * comparison.gpu.accuracy:.1f}%, "
              f"DFX {100 * comparison.dfx.accuracy:.1f}%, "
              f"delta {100 * comparison.accuracy_delta:+.2f}%, "
              f"agreement {100 * comparison.agreement:.1f}%")


def section_dse() -> None:
    result = experiments.run_design_space_exploration(
        mode="evolutionary", population_size=6, generations=3, seed=0
    )
    print(f"evaluated {result.num_evaluated} candidates "
          f"({result.num_feasible} feasible); Pareto front:")
    for member in result.front:
        values = {name: round(value, 4)
                  for name, value in member.vector.as_dict().items()}
        print(f"  {member.candidate.key}: {values}")


#: Every report section: title -> renderer.  Order matches the paper.
SECTIONS: tuple[tuple[str, Callable[[], None]], ...] = (
    ("Table I — model configurations", section_table1),
    ("Figure 3 — GPU sequential bottleneck (1.5B, 4 GPUs)", section_figure3),
    ("Figure 4 — GPU breakdown", section_figure4),
    ("Figure 8 — tile-shape DSE", section_figure8),
    ("Figure 13 — resource utilization (d=64, l=16)", section_figure13),
    ("Figure 14 — latency grid", section_figure14),
    ("Figure 15 — DFX latency breakdown (1.5B, 4 FPGAs, 64:64)", section_figure15),
    ("Figure 16 — throughput and energy efficiency (1.5B)", section_figure16),
    ("Figure 17 — GFLOP/s by platform (345M, 64:64)", section_figure17),
    ("Figure 18 — scalability (345M, 64:64)", section_figure18),
    ("Table II — cost analysis (1.5B, 64:64)", section_table2),
    ("Sec. VII-A — accuracy comparison (synthetic cloze stand-ins)", section_accuracy),
    ("DSE — appliance design-space exploration (Pareto front)", section_dse),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--section", default=None, metavar="TEXT",
                        help="run only sections whose title contains TEXT "
                             "(case-insensitive substring)")
    parser.add_argument("--list", action="store_true",
                        help="list section titles and exit")
    args = parser.parse_args(argv)

    if args.list:
        for title, _ in SECTIONS:
            print(title)
        return 0

    selected = [
        (title, renderer)
        for title, renderer in SECTIONS
        if args.section is None or args.section.lower() in title.lower()
    ]
    if not selected:
        print(f"no section title contains {args.section!r}", file=sys.stderr)
        return 2

    print("DFX reproduction — experiment report")
    failures = []
    for title, renderer in selected:
        print()
        print(f"### {title}")
        try:
            renderer()
        except Exception:
            failures.append(title)
            traceback.print_exc()
    if failures:
        print()
        print(f"{len(failures)} section(s) failed: {failures}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

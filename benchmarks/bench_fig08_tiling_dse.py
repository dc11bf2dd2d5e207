"""Figure 8: tile-shape design-space exploration.

(a) multi-head-attention throughput for the five candidate (d, l) points with
the MAC count fixed at 1024, and (b) the hardware cost of the three
best-performing points — the combination that leads the paper to standardize
on d=64, l=16.
"""

from _bench_helpers import print_header, run_once

from repro.analysis.experiments import run_figure8
from repro.analysis.reports import format_table
from repro.core.tiling import TILE_DESIGN_POINTS
from repro.fpga.resources import estimate_core_resources


def test_figure8_tiling_design_space(benchmark):
    result = run_once(benchmark, run_figure8)

    print_header("Figure 8a — multi-head-attention GFLOP/s per tile shape")
    rows = [
        [f"d={d}, l={l}", result.mha_gflops[(d, l)]]
        for d, l in TILE_DESIGN_POINTS
    ]
    print(format_table(["design point", "MHA GFLOP/s"], rows))
    print("Paper: (16,64), (32,32), (64,16) tie; (8,128) and (128,8) fall behind")

    print_header("Figure 8b — MPU resource utilization per tile shape")
    resource_rows = []
    for point in ((16, 64), (32, 32), (64, 16)):
        report = estimate_core_resources(d=point[0], l=point[1])
        utilization = report.components["mpu"].utilization(report.spec.resources)
        resource_rows.append([
            f"d={point[0]}, l={point[1]}",
            100 * utilization["lut"],
            100 * utilization["ff"],
            100 * utilization["bram_36k"],
            100 * utilization["dsp"],
        ])
    print(format_table(["design point", "LUT %", "FF %", "BRAM %", "DSP %"], resource_rows))
    print("Paper: d=64, l=16 needs the least hardware among the best performers")

    best = result.best_performing_points()
    assert (64, 16) in best
    assert (8, 128) not in best
    assert (128, 8) not in best
    assert result.cheapest_best_point() == (64, 16)


def test_figure8_mha_kernel_throughput(benchmark):
    """Micro-benchmark: evaluating the DSE sweep itself is cheap and repeatable."""
    from repro.core.tiling import design_space_mha_sweep
    from repro.model.config import GPT2_1_5B

    sweep = benchmark(design_space_mha_sweep, GPT2_1_5B, 64)
    assert len(sweep) == 5

"""Experiment drivers: one function per paper table/figure.

Each driver builds the relevant platform models, runs the paper's workloads,
and returns a structured result object.  The registry in
:mod:`repro.analysis.claims` lists the paper's tables and figures with their
drivers and scores each result against the paper's published values.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.analysis.breakdown import BreakdownReport, dfx_breakdown, gpu_breakdown
from repro.analysis.cost import CostComparison, cost_comparison
from repro.analysis.energy import average_energy_efficiency_gain
from repro.analysis.metrics import (
    ComparisonRow,
    StageGflops,
    average_speedup,
    average_throughput_ratio,
    pair_results,
    stage_gflops,
)
from repro.analysis.workload_presets import (
    EvaluationSetup,
    PAPER_EVALUATION_SETUPS,
    PRIMARY_SETUP,
    SCALABILITY_SETUP,
)
from repro.backends import Backend, make_backend
from repro.baselines.gpu import GPUAppliance
from repro.errors import ConfigurationError
from repro.baselines.tpu import TPUBaseline
from repro.core.appliance import DFXAppliance
from repro.core.calibration import Calibration, DEFAULT_CALIBRATION
from repro.fpga.resources import CoreResourceReport, estimate_core_resources
from repro.model.accuracy import AccuracyComparison, compare_pipelines
from repro.model.config import GPT2Config, GPT2_1_5B, GPT2_345M, GPT2_TEST_SMALL, PAPER_MODELS
from repro.model.datasets import paper_datasets
from repro.model.gpt2 import GPT2Model
from repro.model.numerics import FP16_DFX, FP16_GPU
from repro.model.weights import generate_weights
from repro.serving import (
    CHATBOT_MIX,
    DATACENTER_MIX,
    ContinuousBatching,
    DegradedModePolicy,
    DynamicBatching,
    FaultSchedule,
    FleetMember,
    NetworkLink,
    NetworkModel,
    RetryPolicy,
    WorkloadMix,
    bursty_trace,
    poisson_trace,
    rack_fleet,
    with_service_levels,
)
from repro.workloads import (
    BALANCED_64_64_WORKLOAD,
    FIGURE3_WORKLOADS,
    PAPER_WORKLOAD_GRID,
    Workload,
)


# ---------------------------------------------------------------------- Fig. 3
@dataclass(frozen=True)
class Figure3Result:
    """GPU latency split by stage across the Fig. 3 workload sweep."""

    workloads: tuple[Workload, ...]
    summarization_ms: tuple[float, ...]
    generation_ms: tuple[float, ...]

    @property
    def marginal_output_token_ms(self) -> float:
        """Average latency added per extra output token."""
        first = self.summarization_ms[3] + self.generation_ms[3]   # [32:1]
        last = self.summarization_ms[-1] + self.generation_ms[-1]  # [32:4]
        return (last - first) / 3.0

    @property
    def marginal_input_token_ms(self) -> float:
        """Average latency added per extra input token."""
        largest = self.summarization_ms[0] + self.generation_ms[0]   # [128:1]
        smallest = self.summarization_ms[3] + self.generation_ms[3]  # [32:1]
        return (largest - smallest) / (128 - 32)


def run_figure3(
    config: GPT2Config = GPT2_1_5B, num_devices: int = 4
) -> Figure3Result:
    """Fig. 3: GPU latency with increasing input tokens then output tokens."""
    gpu = GPUAppliance(config, num_devices=num_devices)
    results = [gpu.run(workload) for workload in FIGURE3_WORKLOADS]
    return Figure3Result(
        workloads=FIGURE3_WORKLOADS,
        summarization_ms=tuple(result.summarization.latency_ms for result in results),
        generation_ms=tuple(result.generation.latency_ms for result in results),
    )


# ---------------------------------------------------------------------- Fig. 4
@dataclass(frozen=True)
class Figure4Result:
    """GPU latency breakdown vs raw-operation breakdown."""

    latency_fractions: dict[str, float]
    operation_fractions: dict[str, float]


def run_figure4(
    config: GPT2Config = GPT2_1_5B,
    num_devices: int = 4,
    workload: Workload = BALANCED_64_64_WORKLOAD,
) -> Figure4Result:
    """Fig. 4: GPU latency and operation-count breakdown."""
    gpu = GPUAppliance(config, num_devices=num_devices)
    result = gpu.run(workload)
    return Figure4Result(
        latency_fractions=gpu_breakdown([result]).fractions,
        operation_fractions=gpu.operation_count_fractions(),
    )


# ---------------------------------------------------------------------- Fig. 8
@dataclass(frozen=True)
class Figure8Result:
    """Fig. 8 as a factorial slice of the DSE engine over tile shapes (d, l).

    ``exploration`` is the engine's full record; ``mha_gflops`` and
    ``mpu_luts`` re-key its two objective values by (d, l) tile point, and
    the paper's selection rule reads them off.
    """

    exploration: "repro.dse.ExplorationResult"  # noqa: F821 - doc only

    @property
    def mha_gflops(self) -> dict[tuple[int, int], float]:
        return {
            entry.candidate["tile"]: entry.vector.value("mha_gflops")
            for entry in self.exploration.evaluated
        }

    @property
    def mpu_luts(self) -> dict[tuple[int, int], float]:
        return {
            entry.candidate["tile"]: entry.vector.value("mpu_lut")
            for entry in self.exploration.evaluated
        }

    def front_points(self) -> list[tuple[int, int]]:
        """The Pareto-optimal (d, l) tile shapes."""
        return [member.candidate["tile"] for member in self.exploration.front]

    def best_performing_points(self, tolerance: float = 0.05) -> list[tuple[int, int]]:
        """Design points within ``tolerance`` of the best MHA throughput."""
        gflops = self.mha_gflops
        best = max(gflops.values())
        return [
            point
            for point, value in gflops.items()
            if value >= best * (1.0 - tolerance)
        ]

    def cheapest_best_point(self) -> tuple[int, int]:
        """Among the best performers, the point with the fewest MPU LUTs
        (the paper's d=64, l=16)."""
        return min(self.best_performing_points(), key=self.mpu_luts.__getitem__)


def run_figure8(config: str = "1.5b", kv_length: int = 64) -> Figure8Result:
    """Fig. 8: tile-shape DSE — MHA performance (a) against MPU LUT cost (b).

    A two-objective factorial exploration over the five (d, l) splits of
    1024 MACs, so the paper's chosen (64, 16) point can be read both off
    the Pareto front and through the paper's own selection rule.
    """
    from repro.dse import TilingEvaluator, factorial_search, figure8_search_space

    space = figure8_search_space()
    evaluator = TilingEvaluator(config=config, kv_length=kv_length)
    return Figure8Result(exploration=factorial_search(space, evaluator))


# --------------------------------------------------------------------- Fig. 13
def run_figure13() -> CoreResourceReport:
    """Fig. 13: per-component resource utilization of the final (64, 16) core."""
    return estimate_core_resources(d=64, l=16)


# --------------------------------------------------------------------- Fig. 14
@dataclass(frozen=True)
class Figure14Column:
    """One model-size group of Fig. 14."""

    setup: EvaluationSetup
    rows: tuple[ComparisonRow, ...]

    @property
    def average_speedup(self) -> float:
        return average_speedup(list(self.rows))


@dataclass(frozen=True)
class Figure14Result:
    """All model-size groups of Fig. 14."""

    columns: tuple[Figure14Column, ...]

    def speedups(self) -> dict[str, float]:
        """Average speedup per model label."""
        return {column.setup.config.name: column.average_speedup for column in self.columns}


def run_figure14(
    setups: tuple[EvaluationSetup, ...] = PAPER_EVALUATION_SETUPS,
    workloads: tuple[Workload, ...] = PAPER_WORKLOAD_GRID,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> Figure14Result:
    """Fig. 14: DFX vs GPU latency over the 15-workload grid for each model."""
    columns = []
    for setup in setups:
        gpu = GPUAppliance(setup.config, num_devices=setup.num_devices)
        dfx = DFXAppliance(
            setup.config, num_devices=setup.num_devices, calibration=calibration
        )
        gpu_results = gpu.run_many(list(workloads))
        dfx_results = dfx.run_many(list(workloads))
        columns.append(
            Figure14Column(setup=setup, rows=tuple(pair_results(gpu_results, dfx_results)))
        )
    return Figure14Result(columns=tuple(columns))


# --------------------------------------------------------------------- Fig. 15
def run_figure15(
    setup: EvaluationSetup = PRIMARY_SETUP,
    workload: Workload = BALANCED_64_64_WORKLOAD,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> BreakdownReport:
    """Fig. 15: DFX latency breakdown on the 1.5B model with 4 FPGAs."""
    dfx = DFXAppliance(setup.config, num_devices=setup.num_devices, calibration=calibration)
    return dfx_breakdown([dfx.run(workload)])


# --------------------------------------------------------------------- Fig. 16
@dataclass(frozen=True)
class Figure16Result:
    """Throughput and energy efficiency over the workload grid (1.5B model)."""

    rows: tuple[ComparisonRow, ...]

    @property
    def throughput_gain(self) -> float:
        return average_throughput_ratio(list(self.rows))

    @property
    def energy_efficiency_gain(self) -> float:
        return average_energy_efficiency_gain(list(self.rows))


def run_figure16(
    setup: EvaluationSetup = PRIMARY_SETUP,
    workloads: tuple[Workload, ...] = PAPER_WORKLOAD_GRID,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> Figure16Result:
    """Fig. 16: throughput and normalized energy efficiency on the 1.5B model."""
    gpu = GPUAppliance(setup.config, num_devices=setup.num_devices)
    dfx = DFXAppliance(setup.config, num_devices=setup.num_devices, calibration=calibration)
    rows = pair_results(gpu.run_many(list(workloads)), dfx.run_many(list(workloads)))
    return Figure16Result(rows=tuple(rows))


# --------------------------------------------------------------------- Fig. 17
@dataclass(frozen=True)
class Figure17Result:
    """Achieved GFLOP/s per platform and stage (345M model, 64:64)."""

    gpu: StageGflops
    tpu: StageGflops
    dfx: StageGflops


def run_figure17(
    config: GPT2Config = GPT2_345M,
    workload: Workload = BALANCED_64_64_WORKLOAD,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> Figure17Result:
    """Fig. 17: GPU vs TPU vs DFX (1 FPGA) achieved GFLOP/s by stage."""
    gpu = GPUAppliance(config, num_devices=1)
    tpu = TPUBaseline(config)
    dfx = DFXAppliance(config, num_devices=1, calibration=calibration)
    return Figure17Result(
        gpu=stage_gflops(gpu.run(workload)),
        tpu=stage_gflops(tpu.run(workload)),
        dfx=stage_gflops(dfx.run(workload)),
    )


# --------------------------------------------------------------------- Fig. 18
@dataclass(frozen=True)
class Figure18Result:
    """DFX throughput scaling with the number of FPGAs (345M model, 64:64)."""

    device_counts: tuple[int, ...]
    tokens_per_second: tuple[float, ...]

    def scaling_factors(self) -> tuple[float, ...]:
        """Throughput gain of each step relative to the previous device count."""
        factors = []
        for index in range(1, len(self.tokens_per_second)):
            factors.append(self.tokens_per_second[index] / self.tokens_per_second[index - 1])
        return tuple(factors)


def run_figure18(
    config: GPT2Config = SCALABILITY_SETUP.config,
    workload: Workload = BALANCED_64_64_WORKLOAD,
    device_counts: tuple[int, ...] = (1, 2, 4),
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> Figure18Result:
    """Fig. 18: DFX tokens/s on 1, 2, and 4 FPGAs."""
    throughputs = []
    for count in device_counts:
        dfx = DFXAppliance(config, num_devices=count, calibration=calibration)
        throughputs.append(dfx.run(workload).tokens_per_second)
    return Figure18Result(
        device_counts=device_counts, tokens_per_second=tuple(throughputs)
    )


# -------------------------------------------------------------------- Table I
def run_table1() -> list[dict[str, object]]:
    """Table I: the three GPT-2 configurations."""
    rows = []
    for config in PAPER_MODELS:
        rows.append(
            {
                "model": config.name,
                "parameters": config.total_parameter_count(),
                "embedding_dimension": config.n_embd,
                "attention_heads": config.n_head,
                "head_dimension": config.head_dim,
                "layers": config.n_layer,
            }
        )
    return rows


# -------------------------------------------------------------------- Table II
def run_table2(
    setup: EvaluationSetup = PRIMARY_SETUP,
    workload: Workload = BALANCED_64_64_WORKLOAD,
    calibration: Calibration = DEFAULT_CALIBRATION,
) -> CostComparison:
    """Table II: cost analysis on the 1.5B model with the 64:64 workload."""
    gpu = GPUAppliance(setup.config, num_devices=setup.num_devices)
    dfx = DFXAppliance(setup.config, num_devices=setup.num_devices, calibration=calibration)
    return cost_comparison(gpu.run(workload), dfx.run(workload))


# ------------------------------------------------------------ Serving studies
# Each study returns the DSE engine's ExplorationResult over the parts it
# built: one candidates x metrics table scored by a repro.dse.ServingEvaluator.
def _serving_backend(spec: str | Backend, config: GPT2Config, num_devices: int | None) -> Backend:
    """Build a registry name with the study's model and device count
    (``None`` keeps the factory default); instances pass through."""
    if not isinstance(spec, str):
        return make_backend(spec)
    devices = {} if num_devices is None else {"devices": num_devices}
    return make_backend(spec, config=config, **devices)


def _one_cluster(platform: Backend, name: str, **parts) -> dict[str, object]:
    """Parts of a one-cluster ``ApplianceServer`` named ``name``."""
    return {"platform": platform, "num_clusters": 1, "platform_name": name, **parts}


def _part(name: str, levels: dict[str, object]) -> dict[str, dict[str, object]]:
    """The levels of a dimension whose every level sets the one part ``name``."""
    return {label: {name: value} for label, value in levels.items()}


def _serving_slice(metrics, *, slo_s=None, rate_bounds=(0.05, 64.0), **dimensions):
    """Score label -> parts ``dimensions`` factorially; a study expects every
    candidate to serve, so the first rejected part raises."""
    from repro.dse import Dimension, SearchSpace, ServingEvaluator, factorial_search

    result = factorial_search(
        SearchSpace([Dimension(name, levels) for name, levels in dimensions.items()]),
        ServingEvaluator(metrics, slo_s, rate_bounds=rate_bounds),
    )
    for entry in result.evaluated:
        if not entry.feasible:
            raise ConfigurationError(f"{entry.key}: {entry.infeasible_reason}")
    return result


def run_scheduler_comparison(
    platform: Backend | str | None = None,
    *,
    policies: tuple[str, ...] = ("fifo", "sjf", "priority", "deadline"),
    arrival_rate_per_s: float = 0.8,
    duration_s: float = 300.0,
    num_clusters: int = 2,
    mix: WorkloadMix = DATACENTER_MIX,
    seed: int = 11,
    trace=None,
    config: GPT2Config = GPT2_1_5B,
    num_devices: int | None = None,
) -> "repro.dse.ExplorationResult":  # noqa: F821 - forward doc reference
    """One trace (``trace``, or Poisson over ``mix``) under each ``scheduler``;
    rank by ``offered_p95_s`` (unserved = infinite), then ``abandonment_rate``.
    """
    if not policies:
        raise ConfigurationError("a scheduler comparison needs at least one policy")
    backend = _serving_backend("dfx" if platform is None else platform, config, num_devices)
    # Every policy serves the identical trace, so a lazy one is materialized.
    traces = (
        {"poisson": poisson_trace(arrival_rate_per_s, duration_s, mix, seed=seed)}
        if trace is None else {"given": list(trace)}
    )
    return _serving_slice(
        ("offered_p95_s", "abandonment_rate", "p95_response_s", "num_offered"),
        appliance={backend.name: {"platform": backend, "num_clusters": num_clusters}},
        trace=_part("trace", traces),
        scheduler=_part("scheduler", {policy: policy for policy in policies}),
    )


def run_serving_capacity(
    config: GPT2Config = GPT2_1_5B,
    *,
    slo_s: float = 8.0,
    num_devices: int = 4,
    mix: WorkloadMix = DATACENTER_MIX,
    trace_duration_s: float = 240.0,
    seed: int = 5,
    scheduler: str = "fifo",
) -> "repro.dse.ExplorationResult":  # noqa: F821 - forward doc reference
    """Max offered rate with p95 under ``slo_s`` (``max_rate_per_s``) per
    ``appliance``: GPU, one DFX cluster, the 4U host's two, and both DFX
    clusters plus the GPU behind one queue."""
    dfx = make_backend("dfx", config=config, devices=num_devices)
    gpu = make_backend("gpu", config=config, devices=num_devices)
    fleet = (FleetMember("dfx", dfx, num_clusters=2), FleetMember("gpu", gpu, num_clusters=1))
    return _serving_slice(
        (),
        slo_s=slo_s,
        appliance={
            "gpu-x1": _one_cluster(gpu, "gpu"),
            "dfx-x1": _one_cluster(dfx, "dfx"),
            "dfx-x2": {"platform": dfx, "num_clusters": 2, "platform_name": "dfx-x2"},
            "dfx-x2+gpu": {"members": fleet},
        },
        scheduler=_part("scheduler", {scheduler: scheduler}),
        trace=_part("trace", {
            "poisson": partial(poisson_trace, duration_s=trace_duration_s, mix=mix, seed=seed)
        }),
    )


def run_fault_campaign(
    platform: Backend | str | None = None,
    *,
    policies: tuple[str, ...] = ("fifo", "sjf", "priority", "deadline"),
    seeds: tuple[int, ...] = (0, 1, 2),
    arrival_rate_per_s: float = 0.6,
    duration_s: float = 180.0,
    mtbf_s: float = 40.0,
    mttr_s: float | None = 15.0,
    num_clusters: int | None = None,
    mix: WorkloadMix = CHATBOT_MIX,
    slo_s: float | None = None,
    retry_policy: RetryPolicy | None = None,
    degraded_mode: DegradedModePolicy | None = None,
    config: GPT2Config = GPT2_1_5B,
    num_devices: int | None = None,
) -> "repro.dse.ExplorationResult":  # noqa: F821 - forward doc reference
    """Failover quality per (``scheduler``, ``seed``) on the 4U host (``dfx-4u``):
    each seed's Poisson trace and MTBF/MTTR fault schedule is served by every
    policy.
    """
    if not policies:
        raise ConfigurationError("a fault campaign needs at least one policy")
    if not seeds:
        raise ConfigurationError("a fault campaign needs at least one seed")
    backend = _serving_backend("dfx-4u" if platform is None else platform, config, num_devices)
    scenarios = {}
    for seed in seeds:
        trace = poisson_trace(arrival_rate_per_s, duration_s, mix, seed=seed)
        scenarios[str(seed)] = {
            "trace": trace if slo_s is None else with_service_levels(trace, slo_s=slo_s),
            "faults": FaultSchedule.poisson(mtbf_s, mttr_s, duration_s, seed=seed),
        }
    return _serving_slice(
        ("availability", "goodput_fraction", "mean_failover_delay_s",
         "slo_violation_rate", "num_retries", "num_failed"),
        appliance={backend.name: {
            "platform": backend,
            "num_clusters": num_clusters,
            "retry_policy": RetryPolicy() if retry_policy is None else retry_policy,
            "degraded_mode": degraded_mode,
        }},
        scheduler=_part("scheduler", {policy: policy for policy in policies}),
        seed=scenarios,
    )


def run_fleet_topology_plan(
    *,
    racks: int = 2,
    appliances_per_rack: int = 2,
    backend: str | Backend = "dfx",
    config: GPT2Config = GPT2_1_5B,
    num_devices: int | None = None,
    arrival_rate_per_s: float = 0.8,
    duration_s: float = 180.0,
    mix: WorkloadMix = DATACENTER_MIX,
    seed: int = 7,
    scheduler: str = "fifo",
    link_latency_s: float = 0.05,
    link_bandwidth_bytes_per_s: float | None = 1.25e9,
    bytes_per_token: float = 4.0,
) -> "repro.dse.ExplorationResult":  # noqa: F821 - forward doc reference
    """One trace on a star of ``racks`` x ``appliances_per_rack`` hosts (ingress
    ``rack0``) under a ``priced`` and a ``zero-cost`` ``network``: the gap in
    their ``cross_rack_p99_s`` is the wire's latency tax."""
    if appliances_per_rack < 1:
        raise ConfigurationError("appliances_per_rack must be positive")
    resolved = _serving_backend(backend, config, num_devices)
    members, placement = rack_fleet(
        [FleetMember(f"host{host}", resolved) for host in range(appliances_per_rack)], racks
    )
    link = NetworkLink(latency_s=link_latency_s, bandwidth_bytes_per_s=link_bandwidth_bytes_per_s)
    return _serving_slice(
        ("p99_response_s", "cross_rack_p99_s", "mean_transfer_s", "cross_rack_fraction"),
        fleet={f"{racks}x{appliances_per_rack}": {"members": members, "scheduler": scheduler}},
        trace=_part("trace", {
            "poisson": poisson_trace(arrival_rate_per_s, duration_s, mix, seed=seed)
        }),
        network=_part("network", {
            label: NetworkModel.star(
                placement, ingress="rack0", link=level, bytes_per_token=bytes_per_token
            )
            for label, level in (("priced", link), ("zero-cost", NetworkLink()))
        }),
    )


def run_batching_comparison(
    config: GPT2Config = GPT2_1_5B,
    *,
    num_devices: int = 4,
    mix: WorkloadMix = CHATBOT_MIX,
    duration_s: float = 120.0,
    low_rate_per_s: float = 0.25,
    burst_rate_per_s: float = 4.0,
    idle_rate_per_s: float = 0.1,
    mean_burst_s: float = 10.0,
    mean_idle_s: float = 10.0,
    max_batch_size: int = 8,
    batch_timeout_s: float = 2.0,
    seed: int = 13,
    dfx_backend: str | Backend = "dfx",
    gpu_backend: str | Backend = "gpu",
) -> "repro.dse.ExplorationResult":  # noqa: F821 - forward doc reference
    """The Sec. III-A tradeoff: unbatched DFX and a GPU unbatched, dynamically
    and continuously batched (``regime``), on sparse Poisson (``trace=low``)
    and bursty (``trace=high``) traffic."""
    dfx = _serving_backend(dfx_backend, config, num_devices)
    gpu = _serving_backend(gpu_backend, config, num_devices)
    return _serving_slice(
        ("p99_response_s", "output_tokens_per_s", "mean_batch_size",
         "mean_gather_delay_s", "utilization", "num_offered"),
        trace=_part("trace", {
            "low": poisson_trace(low_rate_per_s, duration_s, mix, seed=seed),
            "high": bursty_trace(
                burst_rate_per_s, idle_rate_per_s, duration_s, mean_burst_s=mean_burst_s,
                mean_idle_s=mean_idle_s, mix=mix, seed=seed,
            ),
        }),
        regime={
            "dfx-unbatched": _one_cluster(dfx, "dfx"),
            "gpu-unbatched": _one_cluster(gpu, "gpu"),
            "gpu-dynamic": _one_cluster(
                gpu, "gpu", batch_policy=DynamicBatching(max_batch_size, batch_timeout_s),
                max_batch_size=max_batch_size,
            ),
            "gpu-continuous": _one_cluster(
                gpu, "gpu", batch_policy=ContinuousBatching(max_batch_size),
                max_batch_size=max_batch_size,
            ),
        },
    )


def run_batch_capacity_sweep(
    backend: str | Backend = "gpu",
    *,
    config: GPT2Config = GPT2_1_5B,
    num_devices: int = 4,
    batch_sizes: tuple[int, ...] = (1, 2, 4, 8),
    slo_s: float = 30.0,
    batch_timeout_s: float = 1.0,
    num_clusters: int = 1,
    scheduler: str = "fifo",
    mix: WorkloadMix = CHATBOT_MIX,
    trace_duration_s: float = 120.0,
    seed: int = 7,
    rate_bounds: tuple[float, float] = (0.05, 32.0),
) -> "repro.dse.ExplorationResult":  # noqa: F821 - forward doc reference
    """Max rate with p95 under ``slo_s`` (and ``mean_batch_size`` there) per
    ``batch`` size under dynamic batching; size 1 is the unbatched baseline."""
    if not batch_sizes:
        raise ConfigurationError("batch_sizes must be non-empty")
    if any(size < 1 for size in batch_sizes):
        raise ConfigurationError("batch sizes must be >= 1")
    resolved = _serving_backend(backend, config, num_devices)
    return _serving_slice(
        ("mean_batch_size",),
        slo_s=slo_s,
        rate_bounds=rate_bounds,
        appliance={resolved.name: {"platform": resolved, "num_clusters": num_clusters}},
        scheduler=_part("scheduler", {scheduler: scheduler}),
        trace=_part("trace", {
            "poisson": partial(poisson_trace, duration_s=trace_duration_s, mix=mix, seed=seed)
        }),
        batch={
            str(size): {
                "batch_policy": "none" if size == 1 else DynamicBatching(size, batch_timeout_s),
                "max_batch_size": size,
                "platform_name": f"{resolved.name}-batch{size}",
            }
            for size in batch_sizes
        },
    )


# ------------------------------------------------------------------- Accuracy
def run_accuracy_comparison(
    config: GPT2Config = GPT2_TEST_SMALL, seed: int = 0
) -> list[AccuracyComparison]:
    """Sec. VII-A: GPU-pipeline vs DFX-pipeline accuracy on cloze datasets.

    Uses a reduced-size model so the three datasets evaluate in seconds; the
    numeric pathways (FP16, LUT vs tanh GELU) are identical to the full-size
    models'.
    """
    weights = generate_weights(config, seed=seed)
    gpu_model = GPT2Model(weights, numerics=FP16_GPU)
    dfx_model = GPT2Model(weights, numerics=FP16_DFX)
    comparisons = []
    for dataset in paper_datasets(config.vocab_size):
        comparisons.append(compare_pipelines(gpu_model, dfx_model, dataset))
    return comparisons


# ------------------------------------------------------------------------ DSE
def run_design_space_exploration(
    *,
    mode: str = "evolutionary",
    config: str = "test-small",
    backends: tuple[str, ...] = ("dfx", "gpu"),
    schedulers: tuple[str, ...] = ("fifo", "sjf"),
    batch_sizes: tuple[int, ...] = (1, 32),
    devices: tuple[int, ...] | None = None,
    racks: tuple[int, ...] | None = None,
    population_size: int = 8,
    generations: int = 4,
    seed: int = 0,
    jobs: int = 1,
    results_dir: str | None = None,
    serving_duration_s: float | None = 30.0,
    arrival_rate_per_s: float = 0.5,
) -> "repro.dse.ExplorationResult":  # noqa: F821 - forward doc reference
    """The appliance-configuration DSE driver (ROADMAP open item 3).

    Explores backend x scheduler x batch (plus devices/racks when given)
    under the four-objective appliance evaluator and returns the engine's
    :class:`~repro.dse.ExplorationResult`.  ``mode`` picks the generator:
    ``"evolutionary"`` (seeded NSGA-II) or ``"factorial"`` (exhaustive).
    ``results_dir`` makes the run resumable; ``jobs`` parallelizes
    evaluation with bit-identical results to serial.
    """
    from repro.dse import (
        ApplianceEvaluator,
        appliance_search_space,
        evolutionary_search,
        factorial_search,
    )

    space = appliance_search_space(
        backends=backends,
        schedulers=schedulers,
        batch_sizes=batch_sizes,
        devices=devices,
        racks=racks,
    )
    evaluator = ApplianceEvaluator(
        config=config,
        serving_duration_s=serving_duration_s,
        arrival_rate_per_s=arrival_rate_per_s,
        seed=seed,
    )
    if mode == "factorial":
        return factorial_search(space, evaluator, jobs=jobs, results_dir=results_dir)
    if mode == "evolutionary":
        return evolutionary_search(
            space,
            evaluator,
            population_size=population_size,
            generations=generations,
            seed=seed,
            jobs=jobs,
            results_dir=results_dir,
        )
    raise ConfigurationError(
        f"unknown DSE mode {mode!r}; expected 'evolutionary' or 'factorial'"
    )

"""Which program entry points the traced run wraps, and the per-layer metrics.

Every wrapped call is charged to one group; a group's self time is the time
spent in its calls minus the time of the wrapped calls they made.  The
groups partition the traced wall time: the benchmark's own code and every
program function outside a wrapped call land in the ``bench`` group, which
is reported as ``trace.unattributed_s``.
"""

from __future__ import annotations

import statistics

from repro.backends.adapters import DFXRuntimeBackend
from repro.backends.base import AnalyticBackend
from repro.baselines.gpu import GPUAppliance
from repro.core import functional
from repro.core.cluster import DFXCluster
from repro.core.functional import BatchedKVPool, DFXFunctionalSimulator
from repro.core.scheduler import TimingScheduler
from repro.isa.compiler import DFXCompiler
from repro.serving import simulator
from repro.serving.batching import BackendBatchCostModel, BatchFormationPolicy
from repro.serving.calendar import CalendarQueue
from repro.serving.faults import FaultSchedule
from repro.serving.schedulers import SchedulingPolicy
from repro.serving.server import LatencyOracle, ReportAccumulator
from repro.serving.simulator import ServerUnit
from repro.serving.stats import QuantileSketch

from tracing import Tracer

COMPILE_METHODS = (
    "compile_embedding", "compile_decoder_layer", "compile_decoder_step",
    "compile_batched_decoder_step", "compile_lm_head", "compile_batched_lm_head",
    "compile_token_step",
)
SEAL_METHODS = ("seal_dispatch", "seal_abandoned", "seal_failed", "seal_failover")
PRICING = (
    (ServerUnit, ("service_time_s", "transfer_time_s", "batch_transfer_time_s")),
    (BackendBatchCostModel, ("batch_latency_s", "batch_energy_joules",
                             "continuous_latency_s", "continuous_energy_joules")),
)
DRIVERS = ("figure14", "figure16", "figure18", "table2")

#: Self-time metric of every group; together with ``trace.unattributed_s``
#: (the ``bench`` group) they add up to ``trace.wall_s``.
GROUP_SELF_METRICS = {
    "requests": "requests.gen_s",
    "calendar": "calendar.s",
    "simulator": "simulator.self_s",
    "seal": "server.seal_s",
    "query": "server.query_s",
    "sketch": "stats.sketch_s",
    "oracle": "oracle.estimate_s",
    "pricing": "dispatch.pricing_s",
    "select": "schedulers.select_s",
    "batching": "batching.s",
    "faults": "faults.compile_s",
    "compiler": "compiler.s",
    "link": "functional.link_s",
    "prefill": "functional.prefill_s",
    "decode": "functional.decode_s",
    "generate": "functional.generate_s",
    "step": "session.step_s",
    "kv": "kv.copy_slots_s",
    "time_program": "scheduler.time_program_s",
    "token_step": "cluster.token_step_s",
    "gpu": "gpu.estimate_s",
    "experiments": "experiments.self_s",
    "bench": "trace.unattributed_s",
}


def install(tracer: Tracer, fault_events: list[int]) -> None:
    """Wrap the program's public entry points; ``tracer.restore()`` undoes it.

    ``fault_events`` collects the event count of every compiled fault
    schedule (the simulator handles one event per entry).
    """
    tracer.patch(CalendarQueue, "push", "CalendarQueue.push", "calendar")
    tracer.patch(CalendarQueue, "pop", "CalendarQueue.pop", "calendar")
    tracer.patch_function(simulator.simulate, "simulate", "simulator")
    for method in SEAL_METHODS:
        tracer.patch(ReportAccumulator, method, f"ReportAccumulator.{method}", "seal")
    tracer.patch(QuantileSketch, "add", "QuantileSketch.add", "sketch")
    tracer.patch(QuantileSketch, "query", "QuantileSketch.query", "sketch")
    tracer.patch(LatencyOracle, "result_for", "LatencyOracle.result_for", "oracle")
    tracer.patch_overrides(AnalyticBackend, "estimate", "oracle")
    tracer.patch(DFXRuntimeBackend, "estimate", "DFXRuntimeBackend.estimate", "oracle")
    for owner, methods in PRICING:
        for method in methods:
            tracer.patch(owner, method, f"{owner.__name__}.{method}", "pricing")
    tracer.patch_overrides(SchedulingPolicy, "select", "select")
    tracer.patch_overrides(SchedulingPolicy, "select_batch", "select")
    tracer.patch_overrides(BatchFormationPolicy, "ready", "batching")
    tracer.patch(FaultSchedule, "compile", "FaultSchedule.compile", "faults",
                 on_result=lambda compiled: fault_events.append(len(compiled.events)))
    for method in COMPILE_METHODS:
        tracer.patch(DFXCompiler, method, f"DFXCompiler.{method}", "compiler")
    tracer.patch_function(functional.link_program, "link_program", "link")
    _patch_forward(tracer)
    tracer.patch(BatchedKVPool, "copy_slots", "BatchedKVPool.copy_slots", "kv")
    tracer.patch(TimingScheduler, "time_program", "TimingScheduler.time_program",
                 "time_program")
    tracer.patch(DFXCluster, "token_step", "DFXCluster.token_step", "token_step")
    tracer.patch(GPUAppliance, "run", "GPUAppliance.run", "gpu")
    tracer.patch(GPUAppliance, "batched_request_latency_ms",
                 "GPUAppliance.batched_request_latency_ms", "gpu")


def _patch_forward(tracer: Tracer) -> None:
    """Charge single-stream forwards to prefill or decode by their rows."""
    original = DFXFunctionalSimulator.__dict__["forward"]
    prefill = tracer.wrap(original, "forward.prefill", "prefill")
    decode = tracer.wrap(original, "forward.decode", "decode")
    tracer.keep_durations("forward.prefill")
    tracer.keep_durations("forward.decode")

    def forward(self, token_ids):
        return (decode if len(token_ids) == 1 else prefill)(self, token_ids)

    tracer.replace(DFXFunctionalSimulator, "forward", forward)


def _names(tracer: Tracer, suffixes) -> list[str]:
    return [name for name in tracer.totals if name.endswith(suffixes)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, gauges: dict, fault_events: list[int]) -> dict:
    """Per-layer metric values (unit-less numbers) from one traced region."""
    groups = tracer.self_by_group()
    metrics = {metric: groups.get(group, 0.0)
               for group, metric in GROUP_SELF_METRICS.items()}
    count = tracer.count
    generated = gauges.get("requests.generated", 0)
    events = (count("CalendarQueue.pop") + gauges.get("simulator.arrivals", 0)
              + sum(fault_events))
    oracle_calls = count("LatencyOracle.result_for")
    misses = sum(calls for (parent, name), calls in tracer.parent_counts.items()
                 if parent == "LatencyOracle.result_for" and name.endswith(".estimate"))
    forwards = (tracer.durations.get("forward.prefill", [])
                + tracer.durations.get("forward.decode", []))
    programs_timed = count("TimingScheduler.time_program")
    token_steps = count("DFXCluster.token_step")
    metrics.update({
        "requests.gen_us_per_req": _ratio(metrics["requests.gen_s"], generated) * 1e6,
        "calendar.ops": count("CalendarQueue.push", "CalendarQueue.pop"),
        "simulator.events": events,
        "simulator.us_per_event": _ratio(metrics["simulator.self_s"], events) * 1e6,
        "server.seal_calls": count(*(f"ReportAccumulator.{m}" for m in SEAL_METHODS)),
        "stats.sketch_adds": count("QuantileSketch.add"),
        "stats.sketch_entries": gauges.get("stats.sketch_entries", 0),
        "oracle.calls": oracle_calls,
        "oracle.misses": misses,
        "oracle.hit_ratio": _ratio(oracle_calls - misses, oracle_calls),
        "dispatch.pricing_calls": count(*(f"{owner.__name__}.{method}"
                                          for owner, methods in PRICING
                                          for method in methods)),
        "schedulers.select_calls": count(*_names(tracer, (".select", ".select_batch"))),
        "batching.ready_calls": count(*_names(tracer, ".ready")),
        "batching.batches": gauges.get("batching.batches", 0),
        "batching.mean_batch_size": gauges.get("batching.mean_batch_size", 0.0),
        "faults.retries": gauges.get("faults.retries", 0),
        "faults.failed": gauges.get("faults.failed", 0),
        "faults.availability": gauges.get("faults.availability", 0.0),
        "network.cross_rack_frac": gauges.get("network.cross_rack_frac", 0.0),
        "compiler.programs": count(*(f"DFXCompiler.{m}" for m in COMPILE_METHODS)),
        "functional.links": count("link_program"),
        "functional.forward_calls": len(forwards),
        "functional.forward_ms_p50": statistics.median(forwards) * 1e3 if forwards else 0.0,
        "session.steps": count("session.step"),
        "session.rows_per_forward": gauges.get("session.rows_per_forward", 0.0),
        "session.cohorts_per_step": gauges.get("session.cohorts_per_step", 0.0),
        "kv.copy_slots_calls": count("BatchedKVPool.copy_slots"),
        "kv.reserved_vs_used": gauges.get("kv.reserved_vs_used", 0.0),
        "scheduler.time_program_calls": programs_timed,
        "cluster.token_steps": token_steps,
        "analytic.timing_reuse": _ratio(token_steps, programs_timed),
        "trace.spans": len(tracer.spans) + tracer.dropped,
    })
    for driver in DRIVERS:
        metrics[f"experiments.{driver}_s"] = tracer.inclusive_s(f"experiments.{driver}")
    return metrics

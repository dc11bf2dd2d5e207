"""Serving studies as factorial slices: one report-metrics evaluator.

A study builds its parts once (backends, traces, fault schedules,
networks) and declares a :class:`~repro.dse.space.SearchSpace` over them:
every dimension maps each level's label to a dict of parts.
:class:`ServingEvaluator` merges a candidate's dicts, builds an
``ApplianceFleet`` when a ``members`` part is set (an ``ApplianceServer``
otherwise) with every part but ``trace`` as a keyword, serves the ``trace``
part, and emits metrics from :data:`REPORT_METRICS`.  Every candidate
serves the study's one trace: unlike
:class:`~repro.dse.appliance.ApplianceEvaluator`, nothing is seeded from
the candidate key.  A part the front end rejects raises
:class:`~repro.errors.ConfigurationError`: an infeasible row.  A part set
twice or a keyword the front end lacks raises ``TypeError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Mapping, Sequence

from repro.dse.objectives import Objective, ObjectiveVector
from repro.dse.space import Candidate
from repro.errors import ConfigurationError
from repro.serving.fleet import ApplianceFleet
from repro.serving.schedulers import make_scheduler
from repro.serving.server import ApplianceServer, ServingReport, capacity_search


def _offered_p95_s(report: ServingReport) -> float:
    """p95 response time over *offered* requests, unserved ones counted as
    infinite, so a policy cannot win by shedding load.  Needs the exact
    response population (a streaming report raises)."""
    responses = sorted(report.stats.response.values())
    rank = math.ceil(0.95 * report.num_offered)  # 1-based order statistic
    if rank > len(responses):
        return math.inf
    return float(responses[rank - 1]) if rank else 0.0


#: Metric name -> (sense, unit, reader of one serving report).
REPORT_METRICS: Mapping[str, tuple[str, str, Callable[[ServingReport], float]]] = {
    "offered_p95_s": ("min", "s", _offered_p95_s),
    "p95_response_s": ("min", "s", lambda r: r.response_time_percentile_s(95.0)),
    "p99_response_s": ("min", "s", lambda r: r.response_time_percentile_s(99.0)),
    "abandonment_rate": ("min", "ratio", attrgetter("abandonment_rate")),
    "num_offered": ("max", "req", attrgetter("num_offered")),
    "output_tokens_per_s": ("max", "tok/s", attrgetter("output_tokens_per_second")),
    "mean_batch_size": ("max", "req", attrgetter("mean_batch_size")),
    "mean_gather_delay_s": ("min", "s", attrgetter("mean_batch_gather_delay_s")),
    "utilization": ("max", "ratio", attrgetter("utilization")),
    "availability": ("max", "ratio", attrgetter("availability")),
    "goodput_fraction": ("max", "ratio", attrgetter("goodput_fraction")),
    "mean_failover_delay_s": ("min", "s", attrgetter("mean_failover_delay_s")),
    "slo_violation_rate": ("min", "ratio", attrgetter("slo_violation_rate")),
    "num_retries": ("min", "count", attrgetter("num_retries")),
    "num_failed": ("min", "count", attrgetter("num_failed")),
    "cross_rack_p99_s": ("min", "s", lambda r: r.cross_rack_response_percentile_s(99.0)),
    "mean_transfer_s": ("min", "s", attrgetter("mean_transfer_time_s")),
    "cross_rack_fraction": ("min", "ratio", attrgetter("cross_rack_dispatch_fraction")),
}

@dataclass(frozen=True)
class ServingEvaluator:
    """Serves each candidate and reads ``metrics`` off its report.

    With ``slo_s`` set, the ``trace`` part is a ``rate -> trace`` builder:
    the evaluator runs :func:`~repro.serving.capacity_search` (p95 under
    ``slo_s``) and emits ``max_rate_per_s``, then ``metrics`` read off the
    report at that rate (0.0 when no probed rate meets the SLO).
    """

    metrics: tuple[str, ...]
    slo_s: float | None = None
    rate_bounds: tuple[float, float] = (0.05, 64.0)

    def __post_init__(self) -> None:
        unknown = [name for name in self.metrics if name not in REPORT_METRICS]
        if unknown:
            raise ConfigurationError(
                f"unknown report metrics {unknown}; known: {sorted(REPORT_METRICS)}"
            )
        if self.slo_s is None and not self.metrics:
            raise ConfigurationError("a serving evaluator needs a metric or an slo_s")
        if self.slo_s is not None and not 0 < self.slo_s < math.inf:
            raise ConfigurationError("slo_s must be positive and finite")
        low, high = self.rate_bounds
        if not 0 < low < high < math.inf:
            raise ConfigurationError("rate_bounds must satisfy 0 < low < high")

    @property
    def objectives(self) -> tuple[Objective, ...]:
        declared = tuple(
            Objective(name, *REPORT_METRICS[name][:2]) for name in self.metrics
        )
        if self.slo_s is None:
            return declared
        return (Objective("max_rate_per_s", "max", "req/s"),) + declared

    def evaluate(self, candidate: Candidate) -> ObjectiveVector:
        parts: dict[str, object] = {}
        for level in candidate.values:
            parts = dict(**parts, **level)  # a part set twice is a TypeError
        trace = parts.pop("trace")
        front = ApplianceFleet(**parts) if "members" in parts else ApplianceServer(**parts)
        readers = [REPORT_METRICS[name][2] for name in self.metrics]
        if self.slo_s is None:
            if not isinstance(trace, Sequence):
                # A lazy trace would be spent by the first candidate.
                raise TypeError("the 'trace' part must be a materialized sequence")
            report = front.serve(trace)
            values = tuple(read(report) for read in readers)
        else:
            plan = capacity_search(
                front.serve, trace, self.slo_s,
                platform=candidate.key,
                scheduler_name=make_scheduler(front.scheduler).name,
                rate_bounds=self.rate_bounds,
            )
            report = plan.report_at_capacity
            values = (plan.max_rate_per_s,) + tuple(
                0.0 if report is None else read(report) for read in readers
            )
        return ObjectiveVector(objectives=self.objectives, values=values)

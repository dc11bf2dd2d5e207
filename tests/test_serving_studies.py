"""Serving studies as factorial slices: ServingEvaluator and the six drivers.

Every study in ``repro.analysis.experiments`` returns one candidates x
metrics table.  The oracle tests serve one candidate of each slice
directly through ``ApplianceServer``/``ApplianceFleet`` (or the capacity
search) and require every metric to equal the direct report's value by
``==``.
"""

import math

import pytest

from repro.analysis import experiments
from repro.backends import make_backend
from repro.dse import (
    REPORT_METRICS,
    Dimension,
    SearchSpace,
    ServingEvaluator,
    factorial_search,
)
from repro.errors import ConfigurationError
from repro.model.config import GPT2_TEST_TINY
from repro.serving import (
    CHATBOT_MIX,
    DATACENTER_MIX,
    ApplianceFleet,
    ApplianceServer,
    ContinuousBatching,
    DynamicBatching,
    FaultSchedule,
    FleetMember,
    NetworkLink,
    NetworkModel,
    RetryPolicy,
    bursty_trace,
    find_max_rate_under_slo,
    poisson_trace,
    rack_fleet,
    with_service_levels,
)
from serving_doubles import FixedLatencyPlatform


def _tiny(name, devices=1):
    return make_backend(name, config=GPT2_TEST_TINY, devices=devices)


def _row(result, **labels):
    """The slice's metrics for one candidate, by metric name."""
    return {
        objective.name: result.value(objective.name, **labels)
        for objective in result.objectives
    }


# ----------------------------------------------------------------- oracles
class TestSlicesMatchDirectServing:
    """One candidate per slice equals the front end served by hand."""

    def test_scheduler_comparison(self):
        # The chatbot mix fits the tiny model's 128-token context window.
        result = experiments.run_scheduler_comparison(
            "gpu", policies=("fifo", "sjf"), arrival_rate_per_s=2.0,
            duration_s=30.0, num_clusters=1, mix=CHATBOT_MIX,
            config=GPT2_TEST_TINY, num_devices=1, seed=4,
        )
        trace = poisson_trace(2.0, 30.0, CHATBOT_MIX, seed=4)
        report = ApplianceServer(_tiny("gpu"), 1, scheduler="sjf").serve(trace)
        row = _row(result, scheduler="sjf")
        assert row["abandonment_rate"] == report.abandonment_rate
        assert row["p95_response_s"] == report.response_time_percentile_s(95.0)
        assert row["num_offered"] == report.num_offered == len(trace)
        # Nothing abandoned, so the offered p95 is the nearest-rank p95 of
        # every response time.
        responses = sorted(c.response_time_s for c in report.completed)
        rank = math.ceil(0.95 * len(responses))
        assert row["offered_p95_s"] == responses[rank - 1]

    def test_serving_capacity(self):
        result = experiments.run_serving_capacity(
            GPT2_TEST_TINY, slo_s=1.0, num_devices=1, mix=CHATBOT_MIX,
            trace_duration_s=20.0,
        )
        assert result.space.dimension("appliance").labels == (
            "gpu-x1", "dfx-x1", "dfx-x2", "dfx-x2+gpu",
        )
        plan = find_max_rate_under_slo(
            _tiny("dfx"),
            lambda rate: poisson_trace(rate, 20.0, CHATBOT_MIX, seed=5),
            1.0,
            num_clusters=2,
            platform_name="dfx-x2",
        )
        assert _row(result, appliance="dfx-x2") == {
            "max_rate_per_s": plan.max_rate_per_s
        }
        assert plan.max_rate_per_s > 0

    def test_fault_campaign(self):
        kwargs = dict(
            arrival_rate_per_s=3.0, duration_s=60.0, mtbf_s=5.0, mttr_s=4.0,
            slo_s=10.0,
        )
        result = experiments.run_fault_campaign(
            policies=("fifo", "sjf"), seeds=(0, 1), config=GPT2_TEST_TINY, **kwargs
        )
        trace = with_service_levels(
            poisson_trace(3.0, 60.0, CHATBOT_MIX, seed=0), slo_s=10.0
        )
        report = ApplianceServer(
            make_backend("dfx-4u", config=GPT2_TEST_TINY),
            scheduler="sjf",
            faults=FaultSchedule.poisson(5.0, 4.0, 60.0, seed=0),
            retry_policy=RetryPolicy(),
        ).serve(trace)
        assert report.num_retries > 0  # the campaign actually killed work
        assert _row(result, scheduler="sjf", seed=0) == {
            "availability": report.availability,
            "goodput_fraction": report.goodput_fraction,
            "mean_failover_delay_s": report.mean_failover_delay_s,
            "slo_violation_rate": report.slo_violation_rate,
            "num_retries": report.num_retries,
            "num_failed": report.num_failed,
        }

    def test_fleet_topology_plan(self):
        result = experiments.run_fleet_topology_plan(
            racks=2, appliances_per_rack=1, config=GPT2_TEST_TINY,
            num_devices=1, arrival_rate_per_s=6.0, duration_s=30.0,
            mix=CHATBOT_MIX, link_latency_s=0.05,
        )
        backend = _tiny("dfx")
        fleet = ApplianceFleet(
            [FleetMember("rack0-host0", backend), FleetMember("rack1-host0", backend)],
            network=NetworkModel.star(
                {"rack0": ("rack0-host0",), "rack1": ("rack1-host0",)},
                ingress="rack0",
                link=NetworkLink(latency_s=0.05, bandwidth_bytes_per_s=1.25e9),
            ),
        )
        report = fleet.serve(poisson_trace(6.0, 30.0, CHATBOT_MIX, seed=7))
        assert report.num_cross_rack_dispatches > 0
        assert _row(result, network="priced") == {
            "p99_response_s": report.response_time_percentile_s(99.0),
            "cross_rack_p99_s": report.cross_rack_response_percentile_s(99.0),
            "mean_transfer_s": report.mean_transfer_time_s,
            "cross_rack_fraction": report.cross_rack_dispatch_fraction,
        }

    @pytest.fixture(scope="class")
    def batching(self):
        return experiments.run_batching_comparison(
            GPT2_TEST_TINY, num_devices=1, duration_s=30.0, burst_rate_per_s=15.0,
            idle_rate_per_s=0.5, mean_burst_s=5.0, mean_idle_s=5.0,
            batch_timeout_s=1.0,
        )

    @pytest.mark.parametrize(
        "regime, policy",
        [("gpu-dynamic", DynamicBatching(8, 1.0)), ("gpu-continuous", ContinuousBatching(8))],
        ids=["dynamic", "continuous"],
    )
    def test_batching_comparison(self, batching, regime, policy):
        trace = bursty_trace(
            15.0, 0.5, 30.0, mean_burst_s=5.0, mean_idle_s=5.0,
            mix=CHATBOT_MIX, seed=13,
        )
        report = ApplianceServer(
            _tiny("gpu"), 1, "gpu", batch_policy=policy, max_batch_size=8,
        ).serve(trace)
        assert report.batch_policy == policy.name
        assert report.mean_batch_size > 1.0
        assert _row(batching, trace="high", regime=regime) == {
            "p99_response_s": report.response_time_percentile_s(99.0),
            "output_tokens_per_s": report.output_tokens_per_second,
            "mean_batch_size": report.mean_batch_size,
            "mean_gather_delay_s": report.mean_batch_gather_delay_s,
            "utilization": report.utilization,
            "num_offered": report.num_offered,
        }

    @pytest.fixture(scope="class")
    def sweep(self):
        return experiments.run_batch_capacity_sweep(
            "gpu", config=GPT2_TEST_TINY, num_devices=1, batch_sizes=(1, 4),
            slo_s=2.0, batch_timeout_s=0.25, trace_duration_s=30.0,
            rate_bounds=(0.1, 16.0),
        )

    @pytest.mark.parametrize(
        "size, policy", [(1, "none"), (4, DynamicBatching(4, 0.25))], ids=["1", "4"]
    )
    def test_batch_capacity_sweep(self, sweep, size, policy):
        plan = find_max_rate_under_slo(
            _tiny("gpu"),
            lambda rate: poisson_trace(rate, 30.0, CHATBOT_MIX, seed=7),
            2.0,
            batch_policy=policy,
            max_batch_size=size,
            rate_bounds=(0.1, 16.0),
        )
        assert plan.report_at_capacity.batch_policy == getattr(policy, "name", policy)
        assert _row(sweep, batch=size) == {
            "max_rate_per_s": plan.max_rate_per_s,
            "mean_batch_size": plan.report_at_capacity.mean_batch_size,
        }


class TestParallelStudies:
    def test_jobs_2_table_equals_serial(self):
        kwargs = dict(
            policies=("fifo", "sjf"), seeds=(0, 1), arrival_rate_per_s=3.0,
            duration_s=40.0, mtbf_s=5.0, mttr_s=4.0, config=GPT2_TEST_TINY,
        )
        serial = experiments.run_fault_campaign(**kwargs)
        parallel = factorial_search(
            serial.space,
            ServingEvaluator(tuple(o.name for o in serial.objectives)),
            jobs=2,
        )
        assert len(serial.table()) == 4
        assert parallel.table() == serial.table()
        assert [e.key for e in parallel.evaluated] == [e.key for e in serial.evaluated]


@pytest.mark.parametrize(
    "driver, kwargs, field",
    [
        (experiments.run_fault_campaign,
         dict(seeds=(0,), duration_s=10.0, num_clusters=0), "num_clusters"),
        (experiments.run_scheduler_comparison,
         dict(policies=("fifo", "fcfs"), duration_s=10.0, num_devices=1, mix=CHATBOT_MIX),
         "unknown scheduler 'fcfs'"),
        (experiments.run_batch_capacity_sweep,
         dict(scheduler="typo", num_devices=1), "unknown scheduler 'typo'"),
    ],
    ids=["num-clusters", "policy", "scheduler"],
)
def test_parts_the_front_end_rejects_raise(driver, kwargs, field):
    # Checked by the server each candidate builds, not by the driver: a
    # study expects every candidate to serve, so no row is dropped quietly.
    with pytest.raises(ConfigurationError, match=field):
        driver(config=GPT2_TEST_TINY, **kwargs)


# ----------------------------------------------------------- the studies
class TestFaultCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return experiments.run_fault_campaign(
            policies=("fifo", "sjf"), seeds=(0, 1), arrival_rate_per_s=3.0,
            duration_s=60.0, mtbf_s=5.0, mttr_s=4.0, config=GPT2_TEST_TINY,
        )

    def test_one_row_per_policy_and_seed(self, campaign):
        assert list(campaign.table()) == [
            "appliance=dfx-4u|scheduler=fifo|seed=0",
            "appliance=dfx-4u|scheduler=fifo|seed=1",
            "appliance=dfx-4u|scheduler=sjf|seed=0",
            "appliance=dfx-4u|scheduler=sjf|seed=1",
        ]

    def test_faults_are_common_to_every_policy(self, campaign):
        # Availability is a property of the (seeded) fault schedule, which
        # every policy replays identically.
        for seed in (0, 1):
            assert campaign.value(
                "availability", scheduler="fifo", seed=seed
            ) == campaign.value("availability", scheduler="sjf", seed=seed)
            assert campaign.value("availability", scheduler="fifo", seed=seed) < 1.0

    def test_a_single_attempt_turns_kills_into_failures(self):
        campaign = experiments.run_fault_campaign(
            policies=("fifo",), seeds=(0,), arrival_rate_per_s=3.0,
            duration_s=60.0, mtbf_s=5.0, mttr_s=4.0, config=GPT2_TEST_TINY,
            retry_policy=RetryPolicy(max_attempts=1),
        )
        assert campaign.value("num_retries") == 0
        assert campaign.value("num_failed") > 0
        assert campaign.value("goodput_fraction") < 1.0

    def test_validation_names_the_argument(self):
        with pytest.raises(ConfigurationError, match="policy"):
            experiments.run_fault_campaign(policies=())
        with pytest.raises(ConfigurationError, match="seed"):
            experiments.run_fault_campaign(seeds=())


class TestFleetTopologyPlan:
    @pytest.fixture(scope="class")
    def plan(self):
        return experiments.run_fleet_topology_plan(
            racks=2, appliances_per_rack=2, config=GPT2_TEST_TINY,
            num_devices=1, arrival_rate_per_s=12.0, duration_s=30.0,
            mix=CHATBOT_MIX, link_latency_s=0.05,
        )

    def test_zero_cost_level_is_the_network_free_fleet(self, plan):
        backend = _tiny("dfx")
        members, _ = rack_fleet([FleetMember("host0", backend),
                                 FleetMember("host1", backend)], 2)
        report = ApplianceFleet(members).serve(
            poisson_trace(12.0, 30.0, CHATBOT_MIX, seed=7)
        )
        assert plan.value("mean_transfer_s", network="zero-cost") == 0.0
        assert plan.value("p99_response_s", network="zero-cost") == (
            report.response_time_percentile_s(99.0)
        )

    def test_priced_link_taxes_cross_rack_requests(self, plan):
        assert plan.value("mean_transfer_s", network="priced") > 0.0
        tax = plan.value("cross_rack_p99_s", network="priced") - plan.value(
            "cross_rack_p99_s", network="zero-cost"
        )
        assert tax > 0.0

    def test_validation_names_the_argument(self):
        with pytest.raises(ConfigurationError, match="racks"):
            experiments.run_fleet_topology_plan(racks=0)
        with pytest.raises(ConfigurationError, match="appliances_per_rack"):
            experiments.run_fleet_topology_plan(appliances_per_rack=0)


class TestOfferedP95:
    def test_streaming_report_refuses_offered_p95(self):
        # Regression: with streaming accounting the offered p95 sorted an
        # empty record list and read inf for every policy, so the scheduler
        # ranking silently fell back to abandonment alone.
        read = REPORT_METRICS["offered_p95_s"][2]
        trace = poisson_trace(0.5, 60.0, DATACENTER_MIX, seed=11)
        streaming = ApplianceServer(
            make_backend("tpu"), 1, retain_records=False
        ).serve(trace)
        with pytest.raises(ConfigurationError, match="retain_records"):
            read(streaming)

    def test_scheduler_comparison_ranks_by_finite_offered_p95(self):
        result = experiments.run_scheduler_comparison(
            "tpu", policies=("fifo", "sjf"), arrival_rate_per_s=0.5,
            duration_s=60.0, num_clusters=1,
        )
        assert result.value("offered_p95_s", scheduler="fifo") == pytest.approx(293.1, abs=0.05)
        assert result.value("offered_p95_s", scheduler="sjf") == pytest.approx(277.3, abs=0.05)

    def test_empty_report_reads_zero(self):
        read = REPORT_METRICS["offered_p95_s"][2]
        report = ApplianceServer(FixedLatencyPlatform(1.0), 1).serve([])
        assert read(report) == 0.0


# -------------------------------------------------------------- evaluator
def _space(**levels):
    return SearchSpace([Dimension(name, level) for name, level in levels.items()])


class TestServingEvaluator:
    TRACE = poisson_trace(1.0, 20.0, seed=3)

    def test_objectives_follow_the_metric_table(self):
        evaluator = ServingEvaluator(("p99_response_s", "utilization"))
        assert [(o.name, o.sense, o.unit) for o in evaluator.objectives] == [
            ("p99_response_s", "min", "s"), ("utilization", "max", "ratio"),
        ]
        capacity = ServingEvaluator(("mean_batch_size",), slo_s=2.0)
        assert [o.name for o in capacity.objectives] == [
            "max_rate_per_s", "mean_batch_size",
        ]

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            (dict(metrics=("p100",)), "p100"),
            (dict(metrics=()), "metric"),
            (dict(metrics=(), slo_s=float("nan")), "slo_s"),
            (dict(metrics=(), slo_s=1.0, rate_bounds=(2.0, 1.0)), "rate_bounds"),
        ],
        ids=["unknown-metric", "no-metric", "nan-slo", "rate-bounds"],
    )
    def test_bad_settings_name_the_field(self, kwargs, field):
        with pytest.raises(ConfigurationError, match=field):
            ServingEvaluator(**kwargs)

    def test_candidates_serve_common_random_numbers(self):
        # The same parts under different labels score identically: nothing
        # is seeded from the candidate key.
        platform = FixedLatencyPlatform(0.5)
        result = factorial_search(
            _space(
                platform={"a": {"platform": platform}, "b": {"platform": platform}},
                trace={"t": {"trace": self.TRACE}},
            ),
            ServingEvaluator(("p99_response_s", "num_offered")),
        )
        table = result.table()
        assert table["platform=a|trace=t"] == table["platform=b|trace=t"]

    def test_a_rejected_part_is_an_infeasible_row(self):
        result = factorial_search(
            _space(
                server={"none": {"platform": FixedLatencyPlatform(1.0), "num_clusters": 0}},
                trace={"t": {"trace": self.TRACE}},
            ),
            ServingEvaluator(("num_offered",)),
        )
        (entry,) = result.evaluated
        assert "num_clusters must be positive" in entry.infeasible_reason
        assert result.table() == {}
        with pytest.raises(ConfigurationError, match="infeasible"):
            result.value("num_offered")

    @pytest.mark.parametrize(
        "levels, message",
        [
            (dict(knob={"k": {"trace": TRACE}}), "multiple values"),
            (dict(knob={"k": {"warp": 9}}), "warp"),
            (dict(trace={"lazy": {"trace": iter(TRACE)}}), "materialized"),
        ],
        ids=["part-set-twice", "unknown-keyword", "lazy-trace"],
    )
    def test_malformed_parts_raise(self, levels, message):
        space = _space(
            platform={"p": {"platform": FixedLatencyPlatform(1.0)}},
            **{"trace": {"t": {"trace": self.TRACE}}, **levels},
        )
        with pytest.raises(TypeError, match=message):
            factorial_search(space, ServingEvaluator(("num_offered",)))

    def test_unmeetable_slo_reads_zero_metrics(self):
        result = factorial_search(
            _space(
                platform={"slow": {"platform": FixedLatencyPlatform(5.0)}},
                trace={"poisson": {"trace": lambda rate: poisson_trace(rate, 30.0, seed=3)}},
            ),
            ServingEvaluator(("p99_response_s",), slo_s=1.0),
        )
        assert _row(result) == {"max_rate_per_s": 0.0, "p99_response_s": 0.0}


class TestExplorationReaders:
    @pytest.fixture(scope="class")
    def result(self):
        return factorial_search(
            _space(
                platform={"fast": {"platform": FixedLatencyPlatform(0.5)},
                          "slow": {"platform": FixedLatencyPlatform(2.0)}},
                trace={"t": {"trace": TestServingEvaluator.TRACE}},
                scheduler={name: {"scheduler": name} for name in ("fifo", "sjf")},
            ),
            ServingEvaluator(("p99_response_s",)),
        )

    def test_value_needs_labels_that_pick_one_candidate(self, result):
        assert result.value("p99_response_s", platform="fast", scheduler="sjf") > 0
        with pytest.raises(ConfigurationError, match="match 2 candidates"):
            result.value("p99_response_s", platform="fast")
        with pytest.raises(ConfigurationError, match="match 0 candidates"):
            result.value("p99_response_s", platform="medium", scheduler="sjf")

    def test_table_rows_follow_evaluation_order(self, result):
        assert list(result.table()) == [entry.key for entry in result.evaluated]
        assert result.table()["platform=slow|trace=t|scheduler=fifo"] == {
            "p99_response_s": result.value(
                "p99_response_s", platform="slow", scheduler="fifo"
            )
        }


class TestRackFleet:
    def test_members_and_placement_are_rack_major(self):
        backend = FixedLatencyPlatform(1.0)
        members, placement = rack_fleet(
            [FleetMember("host0", backend, num_clusters=2),
             FleetMember("host1", backend, max_batch_size=4)],
            2,
        )
        assert [m.name for m in members] == [
            "rack0-host0", "rack0-host1", "rack1-host0", "rack1-host1",
        ]
        assert [(m.num_clusters, m.max_batch_size) for m in members] == [
            (2, 1), (None, 4), (2, 1), (None, 4),
        ]
        assert placement == {
            "rack0": ("rack0-host0", "rack0-host1"),
            "rack1": ("rack1-host0", "rack1-host1"),
        }

    def test_racks_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="racks"):
            rack_fleet([FleetMember("host0", FixedLatencyPlatform(1.0))], 0)

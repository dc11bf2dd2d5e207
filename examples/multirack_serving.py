"""Multi-rack fleet serving: the network's price on a region's traffic.

The paper's appliance is one 4U box; a region serves its traffic from
*racks* of such boxes behind one ingress, and the wire between racks is
not free.  This example exercises the network-aware serving subsystem on
the region planner's questions:

1. **The latency tax** — `run_fleet_topology_plan`: the identical trace
   served by a 2-rack fleet under real link parameters and under a
   zero-cost network, as the two levels of one `network` factor.
   Off-rack dispatches pay prompt-ingress plus token-egress transfer, so
   the cross-rack p99 gap between the two rows of the study's table is
   exactly the network's contribution.
2. **Network-aware routing** — with the link priced, the greedy
   earliest-finish load balancer only routes off-rack when the remote
   unit's compute advantage beats the transfer cost, so the cross-rack
   dispatch fraction drops as the link gets slower.
3. **Link faults** — `Outage(link=...)` severs a named link: the rack
   behind it takes no new dispatches until repair (in-flight work
   completes), and the report accounts the severed window.

Run with:  python examples/multirack_serving.py
"""

from __future__ import annotations

from repro import GPT2_1_5B, make_backend
from repro.analysis.experiments import run_fleet_topology_plan
from repro.analysis.reports import format_table
from repro.serving import (
    ApplianceFleet,
    DATACENTER_MIX,
    FaultSchedule,
    FleetMember,
    NetworkLink,
    NetworkModel,
    Outage,
    poisson_trace,
    rack_fleet,
)

RACKS = 2
HOSTS_PER_RACK = 2
LINK_LATENCY_S = 0.25
LINK_BANDWIDTH_BYTES_PER_S = 1.25e9   # 10 Gbit/s
RATE_PER_S = 1.2
DURATION_S = 300.0


def main() -> None:
    print(f"== {RACKS} racks x {HOSTS_PER_RACK} DFX hosts, ingress at rack0, "
          f"link latency {LINK_LATENCY_S}s ==\n")

    print("-- The latency tax: priced link vs zero-cost network --\n")
    plan = run_fleet_topology_plan(
        racks=RACKS,
        appliances_per_rack=HOSTS_PER_RACK,
        arrival_rate_per_s=RATE_PER_S,
        duration_s=DURATION_S,
        link_latency_s=LINK_LATENCY_S,
        link_bandwidth_bytes_per_s=LINK_BANDWIDTH_BYTES_PER_S,
    )
    print(format_table(
        ["metric", "priced link", "zero-cost link"],
        [
            [name,
             plan.value(metric, network="priced"),
             plan.value(metric, network="zero-cost")]
            for name, metric in (
                ("p99 response (s)", "p99_response_s"),
                ("cross-rack p99 (s)", "cross_rack_p99_s"),
                ("mean transfer (s)", "mean_transfer_s"),
                ("cross-rack dispatch fraction", "cross_rack_fraction"),
            )
        ],
    ))
    tax = plan.value("cross_rack_p99_s", network="priced") - plan.value(
        "cross_rack_p99_s", network="zero-cost"
    )
    print(f"\nThe wire adds {tax:.3f}s to the "
          f"cross-rack p99: off-rack capacity is real capacity, but every "
          f"request it serves pays the link both ways.")

    print("\n-- Routing backs off a degrading link --\n")
    backend = make_backend("dfx", config=GPT2_1_5B, devices=4)
    members, placement = rack_fleet(
        [FleetMember(f"host{host}", backend) for host in range(HOSTS_PER_RACK)],
        RACKS,
    )
    trace = poisson_trace(RATE_PER_S, DURATION_S, DATACENTER_MIX, seed=3)
    rows = []
    for latency_s in (0.0, 0.25, 1.0, 4.0):
        fleet = ApplianceFleet(
            members,
            network=NetworkModel.star(
                placement,
                ingress="rack0",
                link=NetworkLink(
                    latency_s=latency_s,
                    bandwidth_bytes_per_s=LINK_BANDWIDTH_BYTES_PER_S,
                ),
            ),
        )
        report = fleet.serve(trace)
        rows.append([
            latency_s,
            100 * report.cross_rack_dispatch_fraction,
            report.mean_transfer_time_s,
            report.response_time_percentile_s(99),
        ])
    print(format_table(
        ["link latency (s)", "cross-rack %", "mean transfer (s)", "p99 (s)"],
        rows,
    ))
    print("\nAs the link slows, the load balancer keeps more traffic on the "
          "ingress rack — off-rack dispatches only happen when the queue "
          "there is worth escaping.")

    print("\n-- A severed link partitions rack1 for a minute --\n")
    fleet = ApplianceFleet(
        members,
        network=NetworkModel.star(
            placement,
            ingress="rack0",
            link=NetworkLink(
                latency_s=LINK_LATENCY_S,
                bandwidth_bytes_per_s=LINK_BANDWIDTH_BYTES_PER_S,
            ),
        ),
        faults=FaultSchedule.scripted(
            Outage(start_s=60.0, duration_s=60.0, link="rack1")
        ),
    )
    report = fleet.serve(trace)
    print(format_table(
        ["metric", "value"],
        [
            ["served", report.num_requests],
            ["cross-rack dispatch fraction",
             report.cross_rack_dispatch_fraction],
            ["rack1 link severed (s)", report.downtime_by_link()["rack1"]],
            ["p99 response (s)", report.response_time_percentile_s(99)],
        ],
    ))
    print("\nDuring the partition, rack0 serves the whole region alone; the "
          "severed window is accounted per link, and nothing in flight was "
          "lost — a partition is not a crash.")


if __name__ == "__main__":
    main()

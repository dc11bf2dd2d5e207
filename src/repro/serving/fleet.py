"""Heterogeneous fleet serving: several appliances behind one queue.

The paper's 4U host carries two independent 4-FPGA DFX clusters (Sec. VI); a
datacenter rack mixes such hosts with GPU servers.  This module puts any
combination of backends behind a single request queue: each
:class:`FleetMember` contributes ``num_clusters`` server units backed by its
own latency oracle, and the discrete-event simulator load-balances
dispatches greedily onto the idle unit that finishes the request earliest
(so a faster appliance naturally absorbs more of the offered load).

Scheduling policy (which request goes next) is orthogonal to fleet
composition (where it runs) — any policy from
``repro.serving.schedulers`` works unchanged.  Batch formation is a third
axis: a member with ``max_batch_size > 1`` (e.g. the GPU appliance)
contributes batch-capable units priced through its backend's
:class:`~repro.serving.batching.BackendBatchCostModel`, while DFX members
keep the unbatched batch=1 passthrough — which is exactly the paper's
asymmetry (Sec. III-A): the FPGA appliance serves each request alone for
latency, the GPU needs gathered batches for throughput.

A fourth axis is *where the members sit*: pass a
:class:`~repro.serving.network.NetworkModel` placing every member in a
rack and the simulator prices prompt-ingress plus token-egress transfer
into each dispatch, so routing becomes network-aware (see ``network.py``).
``network=None`` keeps today's one-box arithmetic bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.backends import Backend, make_backend
from repro.errors import ConfigurationError
from repro.serving.batching import (
    BackendBatchCostModel,
    BatchFormationPolicy,
    make_batch_policy,
)
from repro.serving.schedulers import SchedulingPolicy, make_scheduler
from repro.serving.server import LatencyOracle, ServingReport
from repro.serving.simulator import ServerUnit, simulate


@dataclass(frozen=True)
class FleetMember:
    """One appliance in the fleet: a platform and its cluster count.

    ``platform`` may be a :class:`~repro.backends.base.Backend` or a
    registered backend name (``FleetMember("dfx", "dfx", 2)`` builds the
    default DFX cluster adapter); the fleet resolves it through
    :func:`~repro.backends.registry.make_backend`, so anything else raises
    ``ConfigurationError`` at fleet build time.  ``num_clusters=None``
    (the default) takes the cluster count from the resolved backend's
    capabilities (``capabilities().num_units``), so presets like
    ``FleetMember("host0", "dfx-4u")`` spell their shape by name.
    ``max_batch_size`` > 1 marks the member's clusters batch-capable; the
    resolved backend's capabilities must then support batching.
    """

    name: str
    platform: Backend | str
    num_clusters: int | None = None
    max_batch_size: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("fleet member needs a non-empty name")
        if self.num_clusters is not None and self.num_clusters <= 0:
            raise ConfigurationError("num_clusters must be positive")
        if self.max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")


class ApplianceFleet:
    """A set of (possibly heterogeneous) appliances behind one queue."""

    def __init__(
        self,
        members: list[FleetMember] | tuple[FleetMember, ...],
        scheduler: str | SchedulingPolicy = "fifo",
        name: str | None = None,
        batch_policy: str | BatchFormationPolicy = "none",
        faults=None,
        retry_policy=None,
        degraded_mode=None,
        network=None,
        retain_records: bool = True,
    ) -> None:
        if not members:
            raise ConfigurationError("a fleet needs at least one member")
        names = [member.name for member in members]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"fleet member names must be unique: {names}")
        if network is not None:
            # Fail at fleet build time, not mid-simulation: every member
            # must be placed in a rack, and every placed name must exist.
            for member_name in names:
                network.rack_of(member_name)
            unknown = set(network.members) - set(names)
            if unknown:
                raise ConfigurationError(
                    f"network places unknown members {sorted(unknown)}; "
                    f"fleet members: {names}"
                )
        self.network = network
        self.members = tuple(members)
        self.scheduler = scheduler
        self.batch_policy = batch_policy
        self.name = name or "+".join(names)
        self.faults = faults
        self.retry_policy = retry_policy
        self.degraded_mode = degraded_mode
        # False keeps no records and sketches the percentiles (flat memory
        # on long traces), exactly like ApplianceServer.
        self.retain_records = retain_records
        # Each member's platform spec (backend or registry name) is
        # resolved once at fleet build time.
        self._backends = {
            member.name: make_backend(member.platform) for member in self.members
        }
        # num_clusters=None members take their count from the backend's
        # declared capabilities (e.g. "dfx-4u" carries two clusters).
        self._cluster_counts = {
            member.name: (
                member.num_clusters
                if member.num_clusters is not None
                else self._backends[member.name].capabilities().num_units
            )
            for member in self.members
        }
        # One oracle per member so repeated shapes stay cheap across traces.
        self._oracles = {
            member.name: LatencyOracle(self._backends[member.name])
            for member in self.members
        }
        # Batch cost models are validated eagerly so a misconfigured member
        # (batch-capable but a non-batching backend) fails at fleet build
        # time, not mid-simulation.
        self._batch_costs = {
            member.name: (
                BackendBatchCostModel(
                    self._backends[member.name], member.max_batch_size
                )
                if member.max_batch_size > 1
                else None
            )
            for member in self.members
        }

    @property
    def num_clusters(self) -> int:
        """Total server units across the fleet."""
        return sum(self._cluster_counts.values())

    def clusters_for(self, member_name: str) -> int:
        """Resolved cluster count of one member (after capability defaults)."""
        if member_name not in self._cluster_counts:
            raise ConfigurationError(
                f"no fleet member named {member_name!r}; "
                f"members: {[m.name for m in self.members]}"
            )
        return self._cluster_counts[member_name]

    def backend_for(self, member_name: str) -> Backend:
        """The resolved backend serving one member's clusters."""
        if member_name not in self._backends:
            raise ConfigurationError(
                f"no fleet member named {member_name!r}; "
                f"members: {[m.name for m in self.members]}"
            )
        return self._backends[member_name]

    def _units(self) -> list[ServerUnit]:
        units: list[ServerUnit] = []
        for member in self.members:
            oracle = self._oracles[member.name]
            for _ in range(self._cluster_counts[member.name]):
                units.append(
                    ServerUnit(
                        unit_id=len(units),
                        appliance=member.name,
                        oracle=oracle,
                        max_batch_size=member.max_batch_size,
                        batch_costs=self._batch_costs[member.name],
                    )
                )
        return units

    def serve(self, trace) -> ServingReport:
        """Replay a trace (list or lazy iterable) across the whole fleet."""
        return simulate(
            self._units(),
            trace,
            scheduler=make_scheduler(self.scheduler),
            platform=self.name,
            batching=make_batch_policy(self.batch_policy),
            faults=self.faults,
            retry_policy=self.retry_policy,
            degraded_mode=self.degraded_mode,
            network=self.network,
            retain_records=self.retain_records,
        )


def rack_fleet(
    template: Sequence[FleetMember], racks: int
) -> tuple[tuple[FleetMember, ...], dict[str, tuple[str, ...]]]:
    """Replicate ``template`` into racks ``rack0`` .. ``rack{racks-1}``.

    Each rack's copy of a template member is named ``rack{r}-{name}``.
    Returns the members (rack-major) and the rack -> member-names
    placement that :meth:`~repro.serving.network.NetworkModel.star` takes.
    """
    if racks < 1:
        raise ConfigurationError("racks must be >= 1")
    members = tuple(
        replace(member, name=f"rack{rack}-{member.name}")
        for rack in range(racks)
        for member in template
    )
    placement = {
        f"rack{rack}": tuple(f"rack{rack}-{member.name}" for member in template)
        for rack in range(racks)
    }
    return members, placement

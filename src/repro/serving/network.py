"""Network topology between fleet members: racks, links, and transfer cost.

The paper's appliance talks to its FPGAs over Aurora ring links
(``fpga/aurora.py``); a *fleet* of such appliances talks over the
datacenter network, and the multi-FPGA feasibility literature (PAPERS.md,
Gao et al.) shows inter-device communication is the first-order constraint
at scale.  This module prices that constraint into dispatch: a
:class:`NetworkModel` places every :class:`~repro.serving.fleet.FleetMember`
in a named rack and connects each non-ingress rack to the region's ingress
rack by one named :class:`NetworkLink` (a star over racks — the topology of
a row of racks behind one aggregation switch).

Requests arrive at the *ingress* rack.  A request dispatched onto a member
in the ingress rack pays no transfer cost; a request routed off-rack pays
prompt ingress (shipping ``input_tokens`` to the serving rack) plus token
egress (shipping ``output_tokens`` back), each leg paying the link's
propagation latency once and its serialization time at the link bandwidth:

``transfer = 2 * latency + (input + output) * bytes_per_token / bandwidth``

The simulator adds that transfer time to the dispatch's wall clock and to
the greedy earliest-finish routing estimate, so the load balancer is
network-aware: an off-rack unit only wins a dispatch when its service-time
advantage beats the latency tax.  Link degradation faults
(:class:`~repro.serving.faults.Degradation` / ``Outage`` with a ``link=``
target) scale or sever a *link* rather than a unit: a degraded link
stretches transfer time only, and a down link blocks new dispatches to the
rack behind it while in-flight work completes.

A zero-cost model (every link ``NetworkLink()``) prices every transfer at
exactly ``0.0`` and is bit-identical to a fleet with no network at all —
equivalence-tested in the property suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.workloads import Workload

#: Bytes shipped per token id over the wire (one int32 token id).
DEFAULT_BYTES_PER_TOKEN = 4.0


@dataclass(frozen=True)
class NetworkLink:
    """One rack-to-ingress link: propagation latency plus payload bandwidth.

    ``bandwidth_bytes_per_s=None`` means serialization is free (latency-only
    link); the default link is free in both terms, so ``NetworkLink()`` is
    the zero-cost link.
    """

    latency_s: float = 0.0
    bandwidth_bytes_per_s: float | None = None

    def __post_init__(self) -> None:
        # Chained comparisons are False for NaN, so NaN is rejected too.
        if not 0 <= self.latency_s < math.inf:
            raise ConfigurationError(
                "link latency_s must be non-negative and finite"
            )
        if self.bandwidth_bytes_per_s is not None and not (
            0 < self.bandwidth_bytes_per_s < math.inf
        ):
            raise ConfigurationError(
                "link bandwidth_bytes_per_s must be positive and finite "
                "(None = free)"
            )

    @property
    def is_free(self) -> bool:
        """Whether every transfer over this link costs exactly 0.0 seconds."""
        return self.latency_s == 0.0 and self.bandwidth_bytes_per_s is None

    def one_way_s(self, payload_bytes: float) -> float:
        """Seconds to move ``payload_bytes`` one way over this link."""
        if payload_bytes < 0:
            raise ConfigurationError("payload_bytes must be non-negative")
        seconds = self.latency_s
        if self.bandwidth_bytes_per_s is not None:
            seconds += payload_bytes / self.bandwidth_bytes_per_s
        return seconds


@dataclass(frozen=True)
class NetworkModel:
    """Rack placement of fleet members plus the links between racks.

    ``racks`` maps each rack name to the fleet-member names it hosts;
    ``ingress`` names the rack where requests arrive (members there serve
    with zero transfer cost).  ``links`` maps each non-ingress rack to its
    :class:`NetworkLink`; racks left out get the zero-cost default link.
    A link is *named by the rack it serves* — that name is what
    ``Outage(link=...)`` / ``Degradation(link=...)`` target.

    ``bytes_per_token`` sizes the wire payload: prompt ingress ships
    ``input_tokens`` token ids to the serving rack, token egress ships
    ``output_tokens`` back.
    """

    racks: Mapping[str, tuple[str, ...]]
    ingress: str
    links: Mapping[str, NetworkLink] = field(default_factory=dict)
    bytes_per_token: float = DEFAULT_BYTES_PER_TOKEN

    def __post_init__(self) -> None:
        if not self.racks:
            raise ConfigurationError("a network model needs at least one rack")
        # Freeze the mappings so the model is safely shareable and hashable
        # member lists normalize to tuples.
        object.__setattr__(
            self,
            "racks",
            {rack: tuple(members) for rack, members in self.racks.items()},
        )
        object.__setattr__(self, "links", dict(self.links))
        if self.ingress not in self.racks:
            raise ConfigurationError(
                f"ingress rack {self.ingress!r} is not a rack; "
                f"racks: {sorted(self.racks)}"
            )
        if not 0 <= self.bytes_per_token < math.inf:
            raise ConfigurationError(
                "bytes_per_token must be non-negative and finite"
            )
        placement: dict[str, str] = {}
        for rack, members in self.racks.items():
            if not rack:
                raise ConfigurationError("rack names must be non-empty")
            for member in members:
                if member in placement:
                    raise ConfigurationError(
                        f"member {member!r} is placed in both "
                        f"{placement[member]!r} and {rack!r}"
                    )
                placement[member] = rack
        object.__setattr__(self, "_rack_of", placement)
        for rack, link in self.links.items():
            if rack not in self.racks:
                raise ConfigurationError(
                    f"link for unknown rack {rack!r}; racks: {sorted(self.racks)}"
                )
            if rack == self.ingress and not link.is_free:
                raise ConfigurationError(
                    "the ingress rack serves locally and cannot carry a "
                    "priced link"
                )
            if not isinstance(link, NetworkLink):
                raise ConfigurationError(
                    f"links[{rack!r}] must be a NetworkLink, "
                    f"got {type(link).__name__}"
                )

    @classmethod
    def star(
        cls,
        racks: Mapping[str, Sequence[str]],
        *,
        ingress: str | None = None,
        link: NetworkLink = NetworkLink(),
        bytes_per_token: float = DEFAULT_BYTES_PER_TOKEN,
    ) -> "NetworkModel":
        """A uniform star: every non-ingress rack hangs off ``ingress`` by
        the same ``link``.  ``ingress=None`` takes the first rack."""
        rack_names = list(racks)
        if ingress is None:
            ingress = rack_names[0]
        return cls(
            racks={rack: tuple(members) for rack, members in racks.items()},
            ingress=ingress,
            links={rack: link for rack in rack_names if rack != ingress},
            bytes_per_token=bytes_per_token,
        )

    # ------------------------------------------------------------- placement
    @property
    def members(self) -> tuple[str, ...]:
        """Every placed member name, in rack declaration order."""
        return tuple(
            member for members in self.racks.values() for member in members
        )

    def rack_of(self, member: str) -> str:
        """Rack hosting ``member`` (error if the member is unplaced)."""
        rack = self._rack_of.get(member)
        if rack is None:
            raise ConfigurationError(
                f"member {member!r} is not placed in any rack; "
                f"placed members: {sorted(self._rack_of)}"
            )
        return rack

    def is_cross_rack(self, member: str) -> bool:
        """Whether dispatching to ``member`` crosses a rack boundary."""
        return self.rack_of(member) != self.ingress

    def cross_rack_members(self) -> frozenset[str]:
        """Members that serve off the ingress rack (pay transfer cost)."""
        return frozenset(
            member
            for rack, members in self.racks.items()
            if rack != self.ingress
            for member in members
        )

    # ----------------------------------------------------------------- links
    def link_for(self, member: str) -> NetworkLink | None:
        """The link ``member``'s traffic crosses (``None`` for the ingress
        rack — local dispatches touch no link at all)."""
        rack = self.rack_of(member)
        if rack == self.ingress:
            return None
        return self.links.get(rack, NetworkLink())

    def link_name_for(self, member: str) -> str | None:
        """Name of the link ``member`` sits behind (the rack name), or
        ``None`` on the ingress rack."""
        rack = self.rack_of(member)
        return None if rack == self.ingress else rack

    def link_names(self) -> tuple[str, ...]:
        """Every fault-targetable link name (one per non-ingress rack)."""
        return tuple(
            sorted(rack for rack in self.racks if rack != self.ingress)
        )

    # -------------------------------------------------------------- pricing
    def transfer_time_s(self, member: str, workload: Workload) -> float:
        """Seconds of network transfer one request pays on ``member``.

        Prompt ingress plus token egress; exactly ``0.0`` for members on
        the ingress rack and over zero-cost links.
        """
        link = self.link_for(member)
        if link is None:
            return 0.0
        return link.one_way_s(
            workload.input_tokens * self.bytes_per_token
        ) + link.one_way_s(workload.output_tokens * self.bytes_per_token)

    @property
    def is_free(self) -> bool:
        """Whether every transfer under this model costs exactly 0.0 s."""
        return all(
            self.links.get(rack, NetworkLink()).is_free
            for rack in self.racks
            if rack != self.ingress
        )

"""§7's promised payoff, measured: the DPC at the network edge.

"The next step, moving the proxy out to the edge of the network in forward
proxy mode would provide bandwidth savings beyond the site infrastructure
... end users would also see substantial response time improvements, since
content would be delivered from points close to them."  (§1/§7)

This module runs one synthetic workload through three deployments:

* ``origin_only`` — no caching; full pages cross the WAN.
* ``reverse_proxy`` — the paper's §6 configuration: DPC just outside the
  site; templates cross only the site LAN, but assembled pages still
  traverse the whole WAN to the user.
* ``forward_proxy`` — the §7 configuration: DPC at the edge, next to the
  user; only the tiny templates cross the WAN.

Reported per deployment: mean response time and WAN bytes.  The expected
ordering — forward < reverse < none on both axes — is the quantitative
version of the paper's motivation for taking dynamic content to the edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.bem import BackEndMonitor
from ..core.dpc import DynamicProxyCache
from ..errors import ConfigurationError
from ..network import (
    Channel,
    LinkParameters,
    ProtocolOverheadModel,
    SimulatedClock,
    request_message,
    response_message,
)
from ..network.latency import GenerationCostModel
from ..sites import synthetic
from ..sites.synthetic import SyntheticParams
from ..workload import DeterministicProcess, WorkloadGenerator, synthetic_pages
from .replay import CounterMarks, Replay, hit_counters, hit_ratio

DEPLOYMENTS = ("origin_only", "reverse_proxy", "forward_proxy")

#: A cross-Internet path, 2002-style: 40 ms one-way propagation and the
#: ~2 Mbit/s a single short-lived TCP connection actually achieved across
#: the backbone (slow start over a 80 ms RTT never opens the window far).
WAN = LinkParameters(latency_s=0.040, bandwidth_bytes_per_s=250_000.0)
#: The user's access hop to a nearby edge POP: 5 ms, fast.
ACCESS = LinkParameters(latency_s=0.005, bandwidth_bytes_per_s=12_500_000.0)
#: The site-internal LAN between proxy tier and web tier.
LAN = LinkParameters(latency_s=0.0005, bandwidth_bytes_per_s=12_500_000.0)


@dataclass
class EdgeExperimentConfig:
    deployment: str = "forward_proxy"
    #: Pages sized like the paper's "10-20 objects" observation: a dozen
    #: 4 KB fragments, all cacheable -- the regime where shipping the page
    #: across the WAN is the bottleneck.
    synthetic: SyntheticParams = field(
        default_factory=lambda: SyntheticParams(
            fragments_per_page=12, fragment_size=4096, cacheability=1.0
        )
    )
    requests: int = 400
    warmup_requests: int = 100
    seed: int = 42
    wan: LinkParameters = field(default_factory=lambda: WAN)
    access: LinkParameters = field(default_factory=lambda: ACCESS)
    lan: LinkParameters = field(default_factory=lambda: LAN)

    def __post_init__(self) -> None:
        if self.requests <= 0 or self.warmup_requests < 0:
            raise ConfigurationError("request counts must be sensible")
        if self.deployment not in DEPLOYMENTS:
            raise ConfigurationError(
                "deployment must be one of %s" % (DEPLOYMENTS,)
            )


@dataclass
class EdgeExperimentResult:
    deployment: str
    mean_response_time: float
    wan_payload_bytes: int
    wan_wire_bytes: int
    measured_hit_ratio: float


class _Deployment:
    """One deployment's topology and per-request pipeline."""

    def __init__(self, config: EdgeExperimentConfig) -> None:
        self.config = config
        self.clock = SimulatedClock()
        self.services = synthetic.build_services(config.synthetic)
        self.cached = config.deployment != "origin_only"
        self.bem = (
            BackEndMonitor(capacity=4096, clock=self.clock)
            if self.cached
            else None
        )
        self.server = synthetic.build_server(
            params=config.synthetic,
            services=self.services,
            clock=self.clock,
            bem=self.bem,
            cost_model=GenerationCostModel(),
        )
        if self.bem is not None:
            self.bem.attach_database(self.services.db.bus)
        self.dpc = DynamicProxyCache(capacity=4096) if self.cached else None
        overhead = ProtocolOverheadModel()

        # The WAN is always the measured long-haul segment.
        self.wan = Channel("wan", "user-side", "site-side",
                           link=config.wan, overhead=overhead,
                           clock=self.clock)
        self.wan_sniffer = self.wan.attach_sniffer()
        # The short segment differs per deployment.
        if config.deployment == "forward_proxy":
            short_link = config.access   # user <-> edge POP
        else:
            short_link = config.lan      # proxy tier <-> web tier
        self.short = Channel("short", "a", "b", link=short_link,
                             overhead=overhead, clock=self.clock)

    def serve(self, request) -> None:
        deployment = self.config.deployment
        req = request.payload_bytes
        if deployment == "origin_only":
            # user --WAN--> origin; page --WAN--> user.
            self.wan.send(request_message(req, "user-side", "site-side"))
            response = self.server.handle(request)
            self.wan.send(
                response_message(response.payload_bytes, "site-side",
                                 "user-side")
            )
        elif deployment == "reverse_proxy":
            # user --WAN--> proxy --LAN--> origin; template --LAN--> proxy;
            # assembled page --WAN--> user.
            self.wan.send(request_message(req, "user-side", "site-side"))
            self.short.send(request_message(req, "a", "b"))
            response = self.server.handle(request)
            self.short.send(response_message(response.payload_bytes, "b", "a"))
            page = self.dpc.process_response(response.body)
            self.wan.send(
                response_message(
                    page.page_bytes + response.header_bytes,
                    "site-side",
                    "user-side",
                )
            )
        else:
            # user --access--> edge --WAN--> origin; template --WAN--> edge;
            # assembled page --access--> user.
            self.short.send(request_message(req, "a", "b"))
            self.wan.send(request_message(req, "user-side", "site-side"))
            response = self.server.handle(request)
            self.wan.send(
                response_message(response.payload_bytes, "site-side",
                                 "user-side")
            )
            page = self.dpc.process_response(response.body)
            self.short.send(
                response_message(
                    page.page_bytes + response.header_bytes, "b", "a"
                )
            )


def run_edge_experiment(config: EdgeExperimentConfig) -> EdgeExperimentResult:
    """Run one deployment's workload; returns its measurements."""
    deployment = _Deployment(config)
    workload = WorkloadGenerator(
        pages=synthetic_pages(config.synthetic.num_pages),
        arrivals=DeterministicProcess(rate=20.0),
        seed=config.seed,
    )
    times: List[float] = []
    marks = CounterMarks(
        hit_counters(deployment.bem),
        first=config.warmup_requests,
        resets=(deployment.wan_sniffer,),
    )

    def step(index: int, timed, start: float) -> None:
        deployment.serve(timed.request)
        if index >= config.warmup_requests:
            times.append(deployment.clock.now() - start)

    Replay(deployment.clock).run(
        workload, config.warmup_requests + config.requests, step, marks
    )
    grown = marks.growth()
    return EdgeExperimentResult(
        deployment=config.deployment,
        mean_response_time=sum(times) / len(times),
        wan_payload_bytes=deployment.wan_sniffer.total_payload_bytes,
        wan_wire_bytes=deployment.wan_sniffer.total_wire_bytes,
        measured_hit_ratio=hit_ratio(grown["hits"], grown["misses"]),
    )


def compare_deployments(
    requests: int = 400, warmup: int = 100, seed: int = 42
) -> Dict[str, EdgeExperimentResult]:
    """Run all three deployments over the identical workload."""
    return {
        name: run_edge_experiment(
            EdgeExperimentConfig(
                deployment=name, requests=requests,
                warmup_requests=warmup, seed=seed,
            )
        )
        for name in DEPLOYMENTS
    }

"""The Figure 4 test configuration, end to end.

Two machines joined by a measured link::

    Clients  -->  [ External: firewall + proxy cache + DPC ]
                        |            ^
                        v  (origin link, Sniffer attached)
                  [ Origin Site: web server + BEM + DBMS ]

The Sniffer counts every byte crossing the origin link, requests and
responses, payload and TCP/IP headers — exactly the measurement the paper
reports.  The testbed replays one seeded workload against a chosen origin
configuration (``no_cache``, ``dpc``, or ``backend``) and returns byte
counts, measured hit ratio, and response-time statistics.

This module holds the only implementation of the Figure 4 request path,
:class:`Figure4Path`, and the only per-arrival step,
:meth:`Testbed.arrive`.  The testbed, the chaos harness
(:mod:`repro.faults.chaos`) and the overload harness
(:mod:`repro.overload.harness`) use both; the BooksOnline run
(:mod:`repro.harness.realistic`) serves through the path.  A harness adds
its own policy around the two legs of the path instead of copying them.

Hit-ratio control: the experiments of Figures 5/3(b)/6 are parameterized by
a *target* hit ratio ``h``.  The testbed reaches it through the honest
path — before each request, each cacheable fragment on the requested page
is touched in the database with probability ``1 - h`` (update -> trigger ->
BEM invalidation), so a cacheable block access is a hit with probability
``h`` once the cache is warm.  The measured ratio is reported alongside.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..appserver.http import HttpRequest
from ..appserver.server import ApplicationServer
from ..core.bem import BackEndMonitor
from ..core.dpc import AssembledPage, DynamicProxyCache
from ..core.template import TemplateConfig
from ..errors import ConfigurationError
from ..network import (
    Channel,
    Firewall,
    LinkParameters,
    ProtocolOverheadModel,
    SimulatedClock,
    WireMessage,
    request_message,
    response_message,
)
from ..network.latency import GenerationCostModel
from ..sites import synthetic
from ..telemetry.stats import percentile
from ..telemetry.tracing import Tracer
from ..sites.synthetic import SyntheticParams, touch_fragment
from ..workload import (
    ArrivalProcess,
    DeterministicProcess,
    TimedRequest,
    WorkloadGenerator,
    synthetic_pages,
)

MODES = ("no_cache", "dpc", "backend")


@dataclass
class TestbedConfig:
    """One testbed run's knobs."""

    __test__ = False  # not a pytest class, despite the name

    mode: str = "dpc"
    synthetic: SyntheticParams = field(default_factory=SyntheticParams)
    target_hit_ratio: Optional[float] = 0.8
    requests: int = 2000
    warmup_requests: int = 200
    seed: int = 42
    arrival_rate: float = 100.0
    #: Custom arrival process (e.g. a flash crowd); overrides
    #: ``arrival_rate`` when set.
    arrivals: Optional[ArrivalProcess] = None
    #: Relative per-request deadline stamped onto every generated request
    #: (``None`` keeps the deadline-free pre-overload behavior).
    deadline_s: Optional[float] = None
    overhead: ProtocolOverheadModel = field(default_factory=ProtocolOverheadModel)
    cost_model: GenerationCostModel = field(default_factory=GenerationCostModel)
    origin_link: LinkParameters = field(default_factory=LinkParameters)
    dpc_capacity: int = 4096
    template_key_width: int = 4
    #: Check assembled pages against the no-cache oracle every N requests
    #: (0 disables the check).
    correctness_every: int = 0
    #: Record a virtual-time span tree for every request
    #: (:mod:`repro.telemetry`).  Off by default: untraced runs keep the
    #: exact single-advance float arithmetic they always had.
    tracing: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError("mode must be one of %s" % (MODES,))
        if self.target_hit_ratio is not None and not 0.0 <= self.target_hit_ratio <= 1.0:
            raise ConfigurationError("target_hit_ratio must be in [0, 1]")
        if self.requests <= 0 or self.warmup_requests < 0:
            raise ConfigurationError("request counts must be sensible")


@dataclass
class TestbedResult:
    """Measurements over the post-warmup window."""

    __test__ = False  # not a pytest class, despite the name

    mode: str
    requests: int
    # Origin-link traffic (the Sniffer's view)
    response_payload_bytes: int = 0
    response_wire_bytes: int = 0
    request_payload_bytes: int = 0
    request_wire_bytes: int = 0
    # Cache behaviour
    measured_hit_ratio: float = 0.0
    fragments_invalidated: int = 0
    # Latency
    response_times: List[float] = field(default_factory=list)
    # Correctness
    pages_checked: int = 0
    pages_incorrect: int = 0
    # Scanning work (for Result 1)
    firewall_bytes: int = 0
    dpc_scanned_bytes: int = 0

    @property
    def total_wire_bytes(self) -> int:
        """Request plus response wire bytes on the origin link."""
        return self.response_wire_bytes + self.request_wire_bytes

    @property
    def mean_response_time(self) -> float:
        """Mean end-to-end response time over the measured window."""
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)

    def percentile_response_time(self, q: float) -> float:
        """Response-time quantile ``q`` in [0, 1] (nearest-rank).

        Delegates to :func:`repro.telemetry.stats.percentile` so every
        harness reports quantiles under the same rank convention.
        """
        return percentile(self.response_times, q)


class Figure4Path:
    """The Figure 4 request path: two legs around the origin step.

    Owns the firewall, the origin link and its Sniffer; drives the origin
    server and, in DPC mode, the proxy cache.  :meth:`inbound` scans the
    request, sends it on the link and runs the origin step;
    :meth:`outbound` sends the response, scans it and, in DPC mode,
    assembles it and charges the §5 proxy cost.  Every message reaches the
    link through :meth:`transfer`, the one seam a harness may replace (the
    chaos harness retries it).  Entry points are looked up at call time,
    so wrappers put on the instances after construction see every call.
    Untraced, the legs advance the clock directly; traced, each advance
    is a leaf span.
    """

    def __init__(
        self,
        clock: SimulatedClock,
        server: ApplicationServer,
        dpc: Optional[DynamicProxyCache],
        cost_model: GenerationCostModel,
        link: Optional[LinkParameters] = None,
        overhead: Optional[ProtocolOverheadModel] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.clock = clock
        self.server = server
        self.dpc = dpc
        self.cost_model = cost_model
        self.tracer = tracer if tracer is not None else Tracer(clock)
        self.firewall = Firewall()
        self.origin_link = Channel(
            "origin-link",
            endpoint_a="external",
            endpoint_b="origin",
            link=link,
            overhead=overhead,
            clock=clock,
        )
        self.origin_link.tracer = self.tracer
        self.sniffer = self.origin_link.attach_sniffer()

    def transfer(self, message: WireMessage) -> float:
        """Put one message on the origin link; returns the transfer time."""
        return self.origin_link.send(message)

    def inbound(
        self,
        request: HttpRequest,
        origin: Optional[Callable[[HttpRequest], object]] = None,
    ):
        """Client -> firewall -> origin link -> origin.

        Returns what the origin step returns: the server's
        :class:`~repro.appserver.http.HttpResponse`, or whatever ``origin``
        renders in its place (the chaos bypass renders the reference page).
        """
        payload_bytes = request.payload_bytes
        scan_s = self.firewall.scan_bytes(payload_bytes)
        if self.tracer._enabled:
            self.tracer.advance("firewall.scan", scan_s, direction="request")
        else:
            self.clock.advance(scan_s)
        self.transfer(
            request_message(payload_bytes, source="external", destination="origin")
        )
        if origin is None:
            return self.server.handle(request)
        return origin(request)

    def outbound(
        self,
        payload_bytes: int,
        body: str,
        bypass: bool = False,
    ) -> Optional[AssembledPage]:
        """Origin -> origin link -> firewall -> DPC.

        Returns the assembled page, or ``None`` when no DPC step ran (no
        proxy cache, or a ``bypass`` page that ships fully dynamic).
        """
        self.transfer(
            response_message(payload_bytes, source="origin", destination="external")
        )
        tracer = self.tracer
        traced = tracer._enabled
        scan_s = self.firewall.scan_bytes(payload_bytes)
        if traced:
            tracer.advance("firewall.scan", scan_s, direction="response")
        else:
            self.clock.advance(scan_s)
        dpc = self.dpc
        if dpc is None or bypass:
            return None
        # One ``dpc.assemble`` leaf, recorded after the work: a failed
        # assembly is a 0-second leaf whose status is the error's name.
        try:
            assembled = dpc.process_response(body)
        except BaseException as failure:
            if traced:
                tracer.leaf("dpc.assemble", 0.0, type(failure).__name__, {})
            raise
        assemble_s = (
            assembled.template_bytes
            * self.firewall.scan_cost_per_byte  # z ~= y (§5)
            + self.cost_model.assembly_cost(
                assembled.fragments_set + assembled.fragments_get
            )
        )
        if traced:
            tracer.advance(
                "dpc.assemble",
                assemble_s,
                fragments_set=assembled.fragments_set,
                fragments_get=assembled.fragments_get,
            )
        else:
            self.clock.advance(assemble_s)
        return assembled

    def serve(self, request: HttpRequest) -> Tuple[str, Optional[AssembledPage]]:
        """Both legs around ``server.handle``: (client HTML, assembled page)."""
        response = self.inbound(request)
        assembled = self.outbound(response.payload_bytes, response.body)
        return (response.body if assembled is None else assembled.html), assembled


class Testbed:
    """Builds the topology and replays a workload through it."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, config: TestbedConfig) -> None:
        self.config = config
        self.clock = SimulatedClock()
        template_config = TemplateConfig(key_width=config.template_key_width)

        # Origin side.
        self.services = synthetic.build_services(config.synthetic)
        self.monitor = self._build_monitor(template_config)
        self.server = synthetic.build_server(
            params=config.synthetic,
            services=self.services,
            clock=self.clock,
            bem=self.monitor,
            origin_dpc=(
                DynamicProxyCache(
                    capacity=config.dpc_capacity,
                    template_config=template_config,
                    name="dpc-origin",
                )
                if config.mode == "backend"
                else None
            ),
            cost_model=config.cost_model,
        )
        #: The synthetic page script; its block plans name each page's
        #: cacheable (``"frag"``) blocks.
        self.page_script = self.server.scripts.resolve(
            synthetic.SyntheticPageScript.path
        )
        if self.monitor is not None:
            self.monitor.attach_database(self.services.db.bus)

        # External side.
        self.dpc = (
            DynamicProxyCache(
                capacity=config.dpc_capacity,
                template_config=template_config,
                name="dpc-external",
            )
            if config.mode == "dpc"
            else None
        )

        # Observability: one tracer shared by every clock-advancing
        # component, so a request's span tree tiles its virtual latency.
        self.tracer = Tracer(self.clock, enabled=config.tracing)
        self.server.tracer = self.tracer

        # The measured path: firewall, origin link and its Sniffer.
        self.path = Figure4Path(
            self.clock,
            self.server,
            self.dpc,
            cost_model=config.cost_model,
            link=config.origin_link,
            overhead=config.overhead,
            tracer=self.tracer,
        )
        self.firewall = self.path.firewall
        self.origin_link = self.path.origin_link
        self.sniffer = self.path.sniffer

        self._hit_rng = random.Random(config.seed + 1)

        #: Injector hook points: callables invoked as ``hook(testbed, index,
        #: timed)`` by :meth:`arrive`, after the clock reaches the arrival
        #: and before the hit-ratio churn, in registration order.  The chaos
        #: harness (:mod:`repro.faults.chaos`) registers its fault-schedule
        #: tick here first; the testbed itself stays fault-unaware.
        self.pre_request_hooks: List = []

    def _build_monitor(self, template_config: TemplateConfig):
        config = self.config
        if config.mode == "no_cache":
            return None
        return BackEndMonitor(
            capacity=config.dpc_capacity,
            clock=self.clock,
            template_config=template_config,
        )

    # -- workload -----------------------------------------------------------------

    def build_workload(self) -> WorkloadGenerator:
        """The seeded workload generator for this configuration."""
        arrivals = (
            self.config.arrivals
            if self.config.arrivals is not None
            else DeterministicProcess(rate=self.config.arrival_rate)
        )
        return WorkloadGenerator(
            pages=synthetic_pages(self.config.synthetic.num_pages),
            arrivals=arrivals,
            seed=self.config.seed,
            deadline_s=self.config.deadline_s,
        )

    # -- driving ---------------------------------------------------------------------

    def run(self) -> TestbedResult:
        """Replay the workload; returns post-warmup measurements."""
        config = self.config
        total = config.warmup_requests + config.requests
        workload = self.build_workload().materialize(total)

        result = TestbedResult(mode=config.mode, requests=config.requests)
        hits_at_cut = misses_at_cut = 0
        invalidated_at_cut = scanned_at_cut = 0

        for index, timed in enumerate(workload):
            measuring = index >= config.warmup_requests
            if index == config.warmup_requests:
                self.sniffer.reset()
                self.firewall.reset()
                if self.dpc is not None:
                    scanned_at_cut = self.dpc.bytes_scanned
                hits_at_cut, misses_at_cut = self._monitor_hit_counts()
                invalidated_at_cut = self._monitor_invalidations()

            self.arrive(index, timed)
            start = self.clock.now()
            html = self.serve_once(timed.request)
            elapsed = self.clock.now() - start
            self.tracer.annotate_last(elapsed_s=elapsed)

            if measuring:
                result.response_times.append(elapsed)
                if (
                    config.correctness_every
                    and (index - config.warmup_requests) % config.correctness_every == 0
                ):
                    result.pages_checked += 1
                    oracle = self.render_oracle(timed.request)
                    if html != oracle:
                        result.pages_incorrect += 1

        hits, misses = self._monitor_hit_counts()
        window_hits = hits - hits_at_cut
        window_misses = misses - misses_at_cut
        if window_hits + window_misses:
            result.measured_hit_ratio = window_hits / (window_hits + window_misses)
        result.fragments_invalidated = (
            self._monitor_invalidations() - invalidated_at_cut
        )

        responses = self.sniffer.counters("response")
        requests_ = self.sniffer.counters("request")
        result.response_payload_bytes = responses.payload_bytes
        result.response_wire_bytes = responses.wire_bytes
        result.request_payload_bytes = requests_.payload_bytes
        result.request_wire_bytes = requests_.wire_bytes
        result.firewall_bytes = self.firewall.bytes_scanned
        if self.dpc is not None:
            result.dpc_scanned_bytes = self.dpc.bytes_scanned - scanned_at_cut
        return result

    # -- per-request pipeline -----------------------------------------------------

    def render_oracle(self, request: HttpRequest) -> str:
        """The reference (caching-disabled) page for a request.

        The origin server's own uncached render
        (:meth:`~repro.appserver.server.ApplicationServer.render_reference_page`),
        over the *same* services, without advancing the clock or any
        counter — byte-comparable with whatever the cached pipeline
        delivered: the assembly-correctness oracle used by chaos and
        correctness checks.
        """
        return self.server.render_reference_page(request)

    def arrive(self, index: int, timed: TimedRequest) -> None:
        """The per-arrival step every harness runs before serving.

        Advances the clock to the arrival instant, runs the
        ``pre_request_hooks`` in order, then applies the hit-ratio churn.
        """
        self.clock.advance_to(timed.at)
        for hook in self.pre_request_hooks:
            hook(self, index, timed)
        self._churn_fragments(timed.request)

    def serve_once(self, request: HttpRequest) -> str:
        """One request through the Figure 4 path; returns final HTML.

        With tracing enabled this opens the request's root span (unless an
        outer harness already did) and every clock advance lands in a leaf
        span — firewall scans, link transfers (the channel's own spans),
        origin generation, and proxy-side assembly — so the finished tree
        tiles the measured virtual response time exactly.  Untraced, it is
        the path's :meth:`~Figure4Path.serve` alone.
        """
        tracer = self.tracer
        if not tracer._enabled:
            return self.path.serve(request)[0]
        with tracer.request_span(request, mode=self.config.mode) as root:
            html, assembled = self.path.serve(request)
            if assembled is not None:
                root.annotate(
                    hit=assembled.fragments_get > 0 and assembled.fragments_set == 0
                )
            return html

    def _churn_fragments(self, request: HttpRequest) -> None:
        """Drive the target hit ratio via real data updates."""
        h = self.config.target_hit_ratio
        if h is None or h >= 1.0:
            return
        # One draw per cacheable block, in page order: the plan's tagged
        # ("frag") blocks are the page's cacheable pool fragments.
        plan = self.page_script.plan(int(request.param("pageID", "0")))
        for name, params, _, _ in plan:
            if name == "frag" and self._hit_rng.random() < 1.0 - h:
                touch_fragment(self.services, params["id"])

    # -- monitor introspection ----------------------------------------------------

    def _monitor_hit_counts(self):
        if self.monitor is None:
            return 0, 0
        return (
            self.monitor.stats.fragment_hits,
            self.monitor.stats.fragment_misses,
        )

    def _monitor_invalidations(self) -> int:
        if self.monitor is None:
            return 0
        return self.monitor.invalidation.fragments_invalidated


def run_testbed(config: TestbedConfig) -> TestbedResult:
    """Convenience one-shot: build, run, return."""
    return Testbed(config).run()

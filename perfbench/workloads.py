"""The benchmark's workloads: seeded operation streams and the instances
they run against.

Each workload is a closed loop with one client in one process and one
thread: the next operation is issued only after the previous one returns.
The program receives only the generated operations -- page requests and
the data updates between them -- so the testbed's own churn is off
(``target_hit_ratio=None``) and updates go through the public
``touch_fragment`` / products-table paths.

A stream is generated in full before any timing.  It is stored compactly
(one signed integer per operation) because a run replays hundreds of
thousands of operations: a non-negative code indexes ``requests``, a
negative code ``-(j + 1)`` indexes ``updates``.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.appserver.http import HttpRequest
from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.harness.testbed import Testbed, TestbedConfig
from repro.network import (
    Channel,
    Firewall,
    LinkParameters,
    ProtocolOverheadModel,
    SimulatedClock,
    request_message,
    response_message,
)
from repro.network.latency import GenerationCostModel
from repro.network.sniffer import Sniffer
from repro.sites import books
from repro.sites.synthetic import SyntheticParams, touch_fragment
from repro.workload import PageSpec, UserPopulation, synthetic_pages
from repro.workload.arrivals import DeterministicProcess, PoissonProcess
from repro.workload.zipf import ZipfDistribution

#: Zipf exponent of page popularity in every workload.
PAGE_ALPHA = 1.0
#: The books site's catalog and profiles come from this fixed seed; only
#: the operation stream depends on the benchmark's seed argument.
BOOKS_SITE_SEED = 13
BOOKS_USERS = 12
BOOKS_REGISTERED_FRACTION = 0.6
BOOKS_UPDATE_PROBABILITY = 0.05


@dataclass
class OpStream:
    """A workload's operations in issue order."""

    codes: array = field(default_factory=lambda: array("q"))
    #: Virtual arrival instant of each request, in request order.
    arrivals: array = field(default_factory=lambda: array("d"))
    requests: List[HttpRequest] = field(default_factory=list)
    updates: List[object] = field(default_factory=list)
    _request_index: Dict[object, int] = field(default_factory=dict, repr=False)

    def add_request(self, key, make: Callable[[], HttpRequest], at: float) -> None:
        """Append one request; equal keys share one request object."""
        index = self._request_index.get(key)
        if index is None:
            index = len(self.requests)
            self.requests.append(make())
            self._request_index[key] = index
        self.codes.append(index)
        self.arrivals.append(at)

    def add_update(self, index: int) -> None:
        """Append the update ``updates[index]``."""
        self.codes.append(-(index + 1))

    @property
    def request_count(self) -> int:
        """How many requests the stream holds."""
        return len(self.arrivals)


@dataclass
class Instance:
    """One built Figure 4 topology plus the calls the loop makes into it."""

    clock: SimulatedClock
    firewall: Firewall
    link: Channel
    sniffer: Sniffer
    server: object
    bem: BackEndMonitor
    dpc: DynamicProxyCache
    services: object
    #: One request through firewall, link, origin/BEM, link, firewall and
    #: DPC assembly; returns the page the client receives.
    serve: Callable[[HttpRequest], str]
    #: The uncached reference page for a request, from a separate server
    #: over the same services (does not touch the served path's sessions).
    oracle: Callable[[HttpRequest], str]
    #: Apply one entry of ``OpStream.updates``.
    update: Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    """A named workload: how to build its instance and its stream."""

    name: str
    build: Callable[[], Instance]
    generate: Callable[[random.Random, int], OpStream]
    #: Requests served during set-up so caches fill before timing.
    warm_requests: int
    #: Length of the deterministic prefix of the measured window over which
    #: the paper metrics (hit ratio, origin bytes, simulated latency) are
    #: taken; also the length of the traced run.
    paper_requests: int
    #: Rate the stream is sized for: ``max_rps * seconds`` measured
    #: requests, several times today's rate so faster code still fills the
    #: window.
    max_rps: float
    #: Measured requests between two oracle comparisons.
    check_every: int


# -- synthetic site (Figure 4 testbed) ------------------------------------------


def _synthetic_build(params: SyntheticParams, capacity: int) -> Callable[[], Instance]:
    def build() -> Instance:
        testbed = Testbed(
            TestbedConfig(
                mode="dpc",
                synthetic=params,
                target_hit_ratio=None,
                dpc_capacity=capacity,
            )
        )
        return Instance(
            clock=testbed.clock,
            firewall=testbed.firewall,
            link=testbed.origin_link,
            sniffer=testbed.sniffer,
            server=testbed.server,
            bem=testbed.monitor,
            dpc=testbed.dpc,
            services=testbed.services,
            serve=testbed.serve_once,
            oracle=testbed.render_oracle,
            update=lambda pool_index: touch_fragment(testbed.services, pool_index),
        )

    return build


def _synthetic_generate(
    params: SyntheticParams, update_hit_ratio: float
) -> Callable[[random.Random, int], OpStream]:
    """Zipf page requests at 100 req/s of virtual time; before each, every
    cacheable fragment of the page is updated with probability
    ``1 - update_hit_ratio`` (the testbed's churn rule, made explicit)."""

    def generate(rng: random.Random, requests: int) -> OpStream:
        stream = OpStream(updates=list(range(params.effective_pool_size)))
        pages = synthetic_pages(params.num_pages)
        zipf = ZipfDistribution(params.num_pages, alpha=PAGE_ALPHA)
        population = UserPopulation(user_ids=[], registered_fraction=0.0)
        cacheable = [
            [k for k in params.pool_indexes_for_page(page) if params.is_cacheable(k)]
            for page in range(params.num_pages)
        ]
        gaps = DeterministicProcess(rate=100.0).gaps(rng)
        miss = 1.0 - update_hit_ratio
        now = 0.0
        for _ in range(requests):
            now += next(gaps)
            page = zipf.sample(rng) - 1
            visitor = population.draw(rng)
            for pool_index in cacheable[page]:
                if rng.random() < miss:
                    stream.add_update(pool_index)
            stream.add_request(
                (page, visitor.session_id),
                lambda: pages[page].to_request(visitor),
                now,
            )
        return stream

    return generate


# -- BooksOnline (harness.realistic topology) ------------------------------------


def _books_build() -> Instance:
    clock = SimulatedClock()
    services = books.build_services(seed=BOOKS_SITE_SEED, registered_users=BOOKS_USERS)
    bem = BackEndMonitor(capacity=4096, clock=clock)
    server = books.build_server(
        services=services, clock=clock, bem=bem, cost_model=GenerationCostModel()
    )
    bem.attach_database(services.db.bus)
    oracle_server = books.build_server(services=services, clock=clock)
    dpc = DynamicProxyCache(capacity=4096)
    firewall = Firewall()
    link = Channel(
        "origin-link", "external", "origin",
        link=LinkParameters(), overhead=ProtocolOverheadModel(), clock=clock,
    )
    sniffer = link.attach_sniffer()
    products = services.db.table(books.PRODUCTS_TABLE)

    def serve(request: HttpRequest) -> str:
        clock.advance(firewall.scan_bytes(request.payload_bytes))
        link.send(request_message(request.payload_bytes, "external", "origin"))
        response = server.handle(request)
        link.send(response_message(response.payload_bytes, "origin", "external"))
        clock.advance(firewall.scan_bytes(response.payload_bytes))
        return dpc.process_response(response.body).html

    def update(change) -> None:
        product_id, price = change
        products.update({"price": price}, key=product_id)

    return Instance(
        clock=clock,
        firewall=firewall,
        link=link,
        sniffer=sniffer,
        server=server,
        bem=bem,
        dpc=dpc,
        services=services,
        serve=serve,
        oracle=oracle_server.render_reference_page,
        update=update,
    )


def _books_generate(rng: random.Random, requests: int) -> OpStream:
    """Home, catalog and product pages (Zipf), 12 registered users with Zipf
    activity on 60% of visits, Poisson arrivals at 50 req/s of virtual time,
    and a catalog price update before a request with probability 5%."""
    catalog = books.build_services(
        seed=BOOKS_SITE_SEED, registered_users=BOOKS_USERS
    ).db.table(books.PRODUCTS_TABLE)
    categories = sorted({str(row["category"]) for row in catalog.scan()})
    product_ids = [str(key) for key in catalog.keys()]
    pages = [PageSpec.create("/home.jsp")]
    pages += [PageSpec.create("/catalog.jsp", {"categoryID": c}) for c in categories]
    pages += [
        PageSpec.create("/product.jsp", {"productID": p}) for p in product_ids[:10]
    ]
    zipf = ZipfDistribution(len(pages), alpha=PAGE_ALPHA)
    population = UserPopulation(
        user_ids=["user%03d" % i for i in range(BOOKS_USERS)],
        registered_fraction=BOOKS_REGISTERED_FRACTION,
    )
    gaps = PoissonProcess(rate=50.0).gaps(rng)
    stream = OpStream()
    now = 0.0
    for _ in range(requests):
        now += next(gaps)
        if rng.random() < BOOKS_UPDATE_PROBABILITY:
            stream.updates.append(
                (rng.choice(product_ids), round(rng.uniform(3.0, 80.0), 2))
            )
            stream.add_update(len(stream.updates) - 1)
        page = zipf.sample(rng) - 1
        visitor = population.draw(rng)
        stream.add_request(
            (page, visitor.session_id, visitor.user_id),
            lambda: pages[page].to_request(visitor),
            now,
        )
    return stream


# -- the catalogue ------------------------------------------------------------------

_FIG4 = SyntheticParams(
    num_pages=20, fragments_per_page=16, fragment_size=4096, cacheability=0.8
)
_CHURN = SyntheticParams(
    num_pages=400, fragments_per_page=8, fragment_size=256, cacheability=0.8
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="fig4-warm",
            build=_synthetic_build(_FIG4, capacity=4096),
            generate=_synthetic_generate(_FIG4, update_hit_ratio=0.9),
            warm_requests=1000,
            paper_requests=6000,
            max_rps=5000.0,
            check_every=50,
        ),
        Workload(
            name="evict-churn",
            build=_synthetic_build(_CHURN, capacity=512),
            generate=_synthetic_generate(_CHURN, update_hit_ratio=0.5),
            warm_requests=1000,
            paper_requests=12000,
            max_rps=5000.0,
            check_every=50,
        ),
        Workload(
            name="books-personalized",
            build=_books_build,
            generate=_books_generate,
            warm_requests=2000,
            paper_requests=8000,
            max_rps=15000.0,
            check_every=100,
        ),
    )
}

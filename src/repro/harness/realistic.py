"""A realistic-site run: BooksOnline behind the Figure 4 topology.

The synthetic testbed isolates the Table 2 parameters; this experiment
answers the practitioner's question instead: on a personalized e-commerce
site — dynamic layouts, registered/anonymous mix, Zipf-popular categories,
occasional catalog updates — what do the DPC's byte and latency savings
actually look like, and is every served page correct?

Used by ``benchmarks/bench_realistic_site.py`` and importable directly:

    from repro.harness.realistic import run_realistic_pair
    plain, dpc = run_realistic_pair(requests=500)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from ..core.bem import BackEndMonitor
from ..core.dpc import DynamicProxyCache
from ..errors import ConfigurationError
from ..network import SimulatedClock
from ..network.latency import GenerationCostModel
from ..sites import books
from ..workload import PageSpec, UserPopulation, WorkloadGenerator
from ..workload.arrivals import PoissonProcess
from .testbed import Figure4Path


@dataclass
class RealisticConfig:
    cached: bool = True
    requests: int = 500
    warmup_requests: int = 100
    seed: int = 13
    registered_fraction: float = 0.6
    registered_users: int = 12
    arrival_rate: float = 50.0
    #: Probability that any given request is preceded by a catalog update
    #: (price change) — the data churn that drives real invalidations.
    update_probability: float = 0.05
    #: Sample every Nth page against the uncached oracle (0 = off).
    correctness_every: int = 10

    def __post_init__(self) -> None:
        if not 0.0 <= self.update_probability <= 1.0:
            raise ConfigurationError("update_probability must be in [0, 1]")


@dataclass
class RealisticResult:
    cached: bool
    requests: int
    origin_payload_bytes: int = 0
    origin_wire_bytes: int = 0
    measured_hit_ratio: float = 0.0
    response_times: List[float] = field(default_factory=list)
    pages_checked: int = 0
    pages_incorrect: int = 0
    catalog_updates: int = 0

    @property
    def mean_response_time(self) -> float:
        """Mean end-to-end response time over the measured window."""
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)


def _build_workload(config: RealisticConfig, services) -> WorkloadGenerator:
    categories = sorted(
        {str(row["category"]) for row in services.db.table(books.PRODUCTS_TABLE).scan()}
    )
    product_ids = [str(k) for k in services.db.table(books.PRODUCTS_TABLE).keys()]
    pages = [PageSpec.create("/home.jsp")]
    pages += [
        PageSpec.create("/catalog.jsp", {"categoryID": c}) for c in categories
    ]
    pages += [
        PageSpec.create("/product.jsp", {"productID": p})
        for p in product_ids[:10]
    ]
    population = UserPopulation(
        user_ids=["user%03d" % i for i in range(config.registered_users)],
        registered_fraction=config.registered_fraction,
    )
    return WorkloadGenerator(
        pages=pages,
        population=population,
        arrivals=PoissonProcess(rate=config.arrival_rate),
        page_alpha=1.0,
        seed=config.seed,
    )


def run_realistic(config: RealisticConfig) -> RealisticResult:
    """Run BooksOnline through the Figure 4 path in one mode.

    The DPC run pays the same proxy charge (scan plus assembly) as every
    other Figure 4 run, because it serves through the same path.
    """
    clock = SimulatedClock()
    services = books.build_services(seed=config.seed)
    bem = (
        BackEndMonitor(capacity=4096, clock=clock) if config.cached else None
    )
    cost_model = GenerationCostModel()
    server = books.build_server(
        services=services, clock=clock, bem=bem, cost_model=cost_model,
    )
    if bem is not None:
        bem.attach_database(services.db.bus)
    dpc = DynamicProxyCache(capacity=4096) if config.cached else None
    path = Figure4Path(clock, server, dpc, cost_model=cost_model)
    update_rng = random.Random(config.seed + 99)
    product_ids = [str(k) for k in services.db.table(books.PRODUCTS_TABLE).keys()]

    workload = _build_workload(config, services).materialize(
        config.warmup_requests + config.requests
    )
    result = RealisticResult(cached=config.cached, requests=config.requests)
    hits_at_cut = misses_at_cut = 0

    for index, timed in enumerate(workload):
        if index == config.warmup_requests:
            path.sniffer.reset()
            if bem is not None:
                hits_at_cut = bem.stats.fragment_hits
                misses_at_cut = bem.stats.fragment_misses
        clock.advance_to(timed.at)

        # Background catalog churn (same rng in both modes -> paired runs).
        if update_rng.random() < config.update_probability:
            product = update_rng.choice(product_ids)
            services.db.table(books.PRODUCTS_TABLE).update(
                {"price": round(update_rng.uniform(3.0, 80.0), 2)},
                key=product,
            )
            if index >= config.warmup_requests:
                result.catalog_updates += 1

        start = clock.now()
        html, _ = path.serve(timed.request)
        elapsed = clock.now() - start

        if index >= config.warmup_requests:
            result.response_times.append(elapsed)
            if (
                config.correctness_every
                and (index - config.warmup_requests) % config.correctness_every
                == 0
            ):
                result.pages_checked += 1
                oracle = server.render_reference_page(timed.request)
                if html != oracle:
                    result.pages_incorrect += 1

    responses = path.sniffer.counters("response")
    result.origin_payload_bytes = responses.payload_bytes
    result.origin_wire_bytes = responses.wire_bytes
    if bem is not None:
        hits = bem.stats.fragment_hits - hits_at_cut
        misses = bem.stats.fragment_misses - misses_at_cut
        if hits + misses:
            result.measured_hit_ratio = hits / (hits + misses)
    return result


def run_realistic_pair(
    requests: int = 500, warmup: int = 100, seed: int = 13
) -> Tuple[RealisticResult, RealisticResult]:
    """No-cache and DPC runs over the identical workload and churn."""
    plain = run_realistic(
        RealisticConfig(cached=False, requests=requests,
                        warmup_requests=warmup, seed=seed)
    )
    dpc = run_realistic(
        RealisticConfig(cached=True, requests=requests,
                        warmup_requests=warmup, seed=seed)
    )
    return plain, dpc

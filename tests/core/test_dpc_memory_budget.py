"""The proxy's parse cache stays inside its byte budget on real traffic.

``TemplateCache`` holds at most ``maxsize`` wires and at most
``max_wire_bytes`` UTF-8 bytes of them in total.  Each case serves a
seeded stream and checks after every response that the cached wires'
summed UTF-8 size is within the budget, and that the assembled page is
the one a DPC whose parse cache has no byte budget (only the entry bound)
assembles from the same wire.

At the ``fig4`` parameters (20 pages of 16 x 4 KB blocks, target hit
ratio 0.9) each wire is 14 KB or more, so the byte budget binds long before
the entry bound.  BooksOnline's wires are a few hundred bytes, so there
the entry bound binds and the byte budget never evicts.
"""

import random
import sys

from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.core.template import TemplateCache
from repro.harness.testbed import Figure4Path, Testbed, TestbedConfig
from repro.network import SimulatedClock
from repro.network.latency import GenerationCostModel
from repro.sites import books
from repro.sites.synthetic import SyntheticParams
from repro.workload import PageSpec, UserPopulation, WorkloadGenerator
from repro.workload.arrivals import PoissonProcess

REQUESTS = 3000


class BudgetCheck:
    """Wraps ``dpc.process_response`` on the instance to check every
    response against the budget and against an unbudgeted DPC."""

    def __init__(self, dpc: DynamicProxyCache) -> None:
        self.cache = dpc.parse_cache
        self.reference = DynamicProxyCache(
            capacity=dpc.capacity, template_config=dpc.template_config
        )
        self.reference.parse_cache = TemplateCache(
            maxsize=self.cache.maxsize, max_wire_bytes=sys.maxsize
        )
        self.sizes = {}  # cached wire -> its UTF-8 bytes, measured once
        self.responses = 0
        self.byte_evictions = 0
        served = dpc.process_response

        def process(wire):
            before = len(self.cache)
            page = served(wire)
            expected = self.reference.process_response(wire)
            assert page.html == expected.html
            assert page.fragments_get == expected.fragments_get
            assert page.fragments_set == expected.fragments_set
            self.check(before)
            return page

        dpc.process_response = process

    def check(self, before: int) -> None:
        self.responses += 1
        cache = self.cache
        newest = next(reversed(cache._entries), None)
        if newest is not None and newest not in self.sizes:
            # A new wire was put.  If the cache did not grow although it
            # was below its entry bound, the byte budget evicted.
            if len(cache) <= before < cache.maxsize:
                self.byte_evictions += 1
        self.sizes = {
            wire: self.sizes.get(wire) or len(wire.encode("utf-8"))
            for wire in cache._entries
        }
        total = sum(self.sizes.values())
        assert total <= cache.max_wire_bytes
        assert total == cache.wire_bytes


def test_fig4_cache_never_exceeds_its_byte_budget():
    testbed = Testbed(
        TestbedConfig(
            mode="dpc",
            synthetic=SyntheticParams(
                num_pages=20, fragments_per_page=16, fragment_size=4096,
                cacheability=0.8,
            ),
            target_hit_ratio=0.9,
            dpc_capacity=4096,
            seed=1,
        )
    )
    check = BudgetCheck(testbed.dpc)
    for index, timed in enumerate(testbed.build_workload().materialize(REQUESTS)):
        testbed.arrive(index, timed)
        testbed.serve_once(timed.request)
    assert check.responses == REQUESTS
    cache, unbudgeted = check.cache, check.reference.parse_cache
    # The byte budget binds: the unbudgeted cache fills its entry bound,
    # the budgeted one stops far short of it, nearly full by bytes.
    assert len(unbudgeted) == cache.maxsize
    assert len(cache) < cache.maxsize // 2
    assert check.byte_evictions > 0
    assert cache.wire_bytes > cache.max_wire_bytes - 32 * 1024
    # Only wires that no longer repeat were given up.
    assert cache.hits == unbudgeted.hits > 0


def test_books_cache_is_bound_by_entries_not_bytes():
    clock = SimulatedClock()
    services = books.build_services(seed=13, registered_users=12)
    bem = BackEndMonitor(capacity=4096, clock=clock)
    cost_model = GenerationCostModel()
    server = books.build_server(
        services=services, clock=clock, bem=bem, cost_model=cost_model
    )
    bem.attach_database(services.db.bus)
    dpc = DynamicProxyCache(capacity=4096)
    path = Figure4Path(clock, server, dpc, cost_model=cost_model)
    check = BudgetCheck(dpc)
    products = services.db.table(books.PRODUCTS_TABLE)
    product_ids = [str(key) for key in products.keys()]
    categories = sorted({str(row["category"]) for row in products.scan()})
    pages = [PageSpec.create("/home.jsp")]
    pages += [PageSpec.create("/catalog.jsp", {"categoryID": c}) for c in categories]
    pages += [
        PageSpec.create("/product.jsp", {"productID": p}) for p in product_ids[:10]
    ]
    workload = WorkloadGenerator(
        pages=pages,
        population=UserPopulation(
            user_ids=["user%03d" % i for i in range(12)], registered_fraction=0.6
        ),
        arrivals=PoissonProcess(rate=50.0),
        page_alpha=1.0,
        seed=1,
    ).materialize(REQUESTS)
    rng = random.Random(2)
    for timed in workload:
        if rng.random() < 0.05:
            products.update(
                {"price": round(rng.uniform(3.0, 80.0), 2)},
                key=rng.choice(product_ids),
            )
        clock.advance_to(timed.at)
        path.serve(timed.request)
    assert check.responses == REQUESTS
    cache, unbudgeted = check.cache, check.reference.parse_cache
    assert len(cache) == cache.maxsize
    assert cache.wire_bytes < cache.max_wire_bytes // 4
    assert check.byte_evictions == 0
    assert list(cache._entries) == list(unbudgeted._entries)
    assert (cache.hits, cache.misses) == (unbudgeted.hits, unbudgeted.misses)

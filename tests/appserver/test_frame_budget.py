"""The request envelope's frame budget: Python frames per warm request.

A warm request's fixed cost is mostly Python frames, so each case serves
a seeded warm-up and then counts, with ``sys.setprofile``, every ``call``
of a function defined under ``src/repro`` over 2,000 more requests.
Comprehension and generator-expression frames (names starting with
``<``) are left out: Python 3.12 inlines comprehensions and 3.9 does not.

The cases are BooksOnline (``repro.sites.books``, 12 users, 60%
registered, 5% price updates) served through the Figure 4 path, and the
Figure 4 testbed at the ``fig4`` (20 pages of 16 x 4 KB blocks, target
hit ratio 0.9) and ``churn`` (400 pages of 8 x 256 B blocks over 512
slots, target hit ratio 0.5) parameters.  Before the untraced envelope
was made lean (tracer scopes, admission screen and link bookkeeping
skipped when off) the same counts read 119.0 (books), 265.9 (fig4) and
274.7 (churn); the lean envelope reads 87.1, 216.9 and 233.7.  Reading
each page's cacheable blocks off its block plan, instead of testing
every pool fragment's cacheability on each arrival, brings fig4 to 199.9
and churn to 224.7.  Dropping the proxy's scanner object and the
per-literal byte counts of its scan brings the three to 85.5, 195.8 and
222.0.  Writing each page's blocks in one ``ScriptContext.write_blocks``
call (the synthetic plan, and the BooksOnline blocks without params,
carrying each block's id), reading the clock's ``_now`` in the monitor
and skipping a dormant policy's ``on_access`` brings them to 71.7, 145.4
and 206.7.  Giving each synthetic plan item its own zero-argument
generator, so a miss runs one generator frame instead of two, brings fig4
and churn to 142.9 and 201.7; books stays at 71.4.  Each budget is the
current count plus less than 2 frames of slack.

Run this file as a script to print the current counts.
"""

import os
import random
import sys

import pytest

import repro
from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.harness.testbed import Figure4Path, Testbed, TestbedConfig
from repro.network import SimulatedClock
from repro.network.latency import GenerationCostModel
from repro.sites import books
from repro.sites.synthetic import SyntheticParams
from repro.workload import PageSpec, UserPopulation, WorkloadGenerator
from repro.workload.arrivals import PoissonProcess

SRC = os.path.dirname(os.path.abspath(repro.__file__))
WARM = 2000
COUNTED = 2000

#: Mean frames per request each case may spend.
BUDGETS = {"books": 73.0, "fig4": 144.5, "churn": 203.5}


def count_frames(run_one, operations) -> float:
    """Mean ``call`` events under ``src/repro`` per operation."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SRC) and code.co_name[0] != "<":
                calls[0] += 1

    sys.setprofile(profile)
    try:
        for operation in operations:
            run_one(operation)
    finally:
        sys.setprofile(None)
    return calls[0] / len(operations)


def books_frames() -> float:
    clock = SimulatedClock()
    services = books.build_services(seed=13, registered_users=12)
    bem = BackEndMonitor(capacity=4096, clock=clock)
    cost_model = GenerationCostModel()
    server = books.build_server(
        services=services, clock=clock, bem=bem, cost_model=cost_model
    )
    bem.attach_database(services.db.bus)
    path = Figure4Path(
        clock, server, DynamicProxyCache(capacity=4096), cost_model=cost_model
    )
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
    ).materialize(WARM + COUNTED)
    update_rng = random.Random(2)
    updates = [
        (update_rng.choice(product_ids), round(update_rng.uniform(3.0, 80.0), 2))
        if update_rng.random() < 0.05 else None
        for _ in workload
    ]

    def serve(index):
        update = updates[index]
        if update is not None:
            products.update({"price": update[1]}, key=update[0])
        timed = workload[index]
        clock.advance_to(timed.at)
        path.serve(timed.request)

    for index in range(WARM):
        serve(index)
    return count_frames(serve, range(WARM, WARM + COUNTED))


def synthetic_frames(params: SyntheticParams, capacity: int, hit_ratio: float) -> float:
    testbed = Testbed(
        TestbedConfig(
            mode="dpc",
            synthetic=params,
            target_hit_ratio=hit_ratio,
            dpc_capacity=capacity,
            seed=1,
        )
    )
    workload = testbed.build_workload().materialize(WARM + COUNTED)

    def serve(index):
        timed = workload[index]
        testbed.arrive(index, timed)
        testbed.serve_once(timed.request)

    for index in range(WARM):
        serve(index)
    return count_frames(serve, range(WARM, WARM + COUNTED))


CASES = {
    "books": books_frames,
    "fig4": lambda: synthetic_frames(
        SyntheticParams(
            num_pages=20, fragments_per_page=16, fragment_size=4096,
            cacheability=0.8,
        ),
        capacity=4096,
        hit_ratio=0.9,
    ),
    "churn": lambda: synthetic_frames(
        SyntheticParams(
            num_pages=400, fragments_per_page=8, fragment_size=256,
            cacheability=0.8,
        ),
        capacity=512,
        hit_ratio=0.5,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_warm_request_stays_within_its_frame_budget(case):
    frames = CASES[case]()
    assert frames <= BUDGETS[case], "%s: %.1f frames per request, budget %.1f" % (
        case, frames, BUDGETS[case]
    )


if __name__ == "__main__":
    for name, measure in sorted(CASES.items()):
        print("%-6s %.2f frames per request" % (name, measure()))

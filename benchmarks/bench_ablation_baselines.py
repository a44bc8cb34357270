"""Ablation: the Section 3 comparison, quantified on one workload.

Four systems serve the identical BooksOnline request stream (mixed
registered/anonymous visitors).  Reported per system: origin-link payload
bytes, cache hit ratio, and the fraction of *wrong pages* served (vs the
uncached oracle).  This is the paper's Table-of-tradeoffs (§3.3) as data:

* page-level proxy cache — big byte savings, wrong pages;
* ESI assembly          — biggest byte savings, wrong pages (fixed layout);
* back-end fragment cache — correct, zero byte savings (the BEM with its
  DPC inside the site);
* DPC                   — correct AND large byte savings.
"""

import random

from repro.appserver import HttpRequest
from repro.baselines.esi import EsiAssembler
from repro.baselines.page_cache import PageLevelCache
from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.network.clock import SimulatedClock
from repro.network.latency import FREE
from repro.sites import books

REQUESTS = 120


def workload(seed=21):
    rng = random.Random(seed)
    stream = []
    for _ in range(REQUESTS):
        category = rng.choice(["Fiction", "Science", "History", "Children"])
        if rng.random() < 0.5:
            user = "user%03d" % rng.randrange(6)
            stream.append(
                HttpRequest("/catalog.jsp", {"categoryID": category},
                            user_id=user, session_id="sess-%s" % user)
            )
        else:
            stream.append(
                HttpRequest("/catalog.jsp", {"categoryID": category},
                            session_id="anon-%d" % rng.randrange(10))
            )
    return stream


def run_no_cache():
    server = books.build_server(cost_model=FREE)
    origin_bytes = 0
    for request in workload():
        origin_bytes += server.handle(request).payload_bytes
    return dict(system="no cache", origin_bytes=origin_bytes,
                hit_ratio=0.0, wrong_pages=0)


def run_page_cache():
    clock = SimulatedClock()
    server = books.build_server(clock=clock, cost_model=FREE)
    cache = PageLevelCache(clock, ttl_s=600.0)
    wrong = 0
    for request in workload():
        served, _ = cache.serve(request, server.handle)
        if served.body != server.render_reference_page(request):
            wrong += 1
    return dict(system="page-level proxy", origin_bytes=cache.stats.origin_bytes,
                hit_ratio=cache.stats.hit_ratio, wrong_pages=wrong)


def run_esi():
    server = books.build_server(cost_model=FREE)
    esi = EsiAssembler(server)
    wrong = 0
    for request in workload():
        html, _ = esi.serve(request)
        if html != server.render_reference_page(request):
            wrong += 1
    return dict(system="ESI assembly", origin_bytes=esi.stats.origin_payload_bytes,
                hit_ratio=esi.stats.template_hit_ratio, wrong_pages=wrong)


def run_backend():
    clock = SimulatedClock()
    bem = BackEndMonitor(capacity=1024, clock=clock)
    server = books.build_server(
        clock=clock, bem=bem, origin_dpc=DynamicProxyCache(capacity=1024),
        cost_model=FREE,
    )
    bem.attach_database(server.services.db.bus)
    origin_bytes = 0
    wrong = 0
    for request in workload():
        response = server.handle(request)
        origin_bytes += response.payload_bytes
        if response.body != server.render_reference_page(request):
            wrong += 1
    return dict(system="back-end cache", origin_bytes=origin_bytes,
                hit_ratio=bem.hit_ratio, wrong_pages=wrong)


def run_dpc():
    clock = SimulatedClock()
    bem = BackEndMonitor(capacity=1024, clock=clock)
    server = books.build_server(clock=clock, bem=bem, cost_model=FREE)
    bem.attach_database(server.services.db.bus)
    dpc = DynamicProxyCache(capacity=1024)
    origin_bytes = 0
    wrong = 0
    for request in workload():
        response = server.handle(request)
        origin_bytes += response.payload_bytes
        page = dpc.process_response(response.body)
        if page.html != server.render_reference_page(request):
            wrong += 1
    return dict(system="DPC (this paper)", origin_bytes=origin_bytes,
                hit_ratio=bem.hit_ratio, wrong_pages=wrong)


def test_baseline_comparison(benchmark, report):
    def run_all():
        return [run_no_cache(), run_page_cache(), run_esi(), run_backend(),
                run_dpc()]

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    by_name = {row["system"]: row for row in results}
    base = by_name["no cache"]["origin_bytes"]

    report(
        "Section 3 comparison on one BooksOnline workload (%d requests)"
        % REQUESTS,
        ["system", "origin bytes", "vs no cache", "hit ratio",
         "wrong pages"],
        [
            [
                row["system"],
                row["origin_bytes"],
                "%.1f%%" % (100.0 * row["origin_bytes"] / base),
                "%.3f" % row["hit_ratio"],
                "%d/%d" % (row["wrong_pages"], REQUESTS),
            ]
            for row in results
        ],
    )

    # The paper's qualitative table, asserted:
    assert by_name["page-level proxy"]["wrong_pages"] > 0
    assert by_name["ESI assembly"]["wrong_pages"] > 0
    assert by_name["back-end cache"]["wrong_pages"] == 0
    assert by_name["DPC (this paper)"]["wrong_pages"] == 0
    assert by_name["back-end cache"]["origin_bytes"] == base
    assert by_name["DPC (this paper)"]["origin_bytes"] < 0.6 * base

"""The TUTORIAL.md walkthrough, executed end to end.

Docs that don't run are docs that rot; this test is the tutorial's code,
assembled, so any API drift breaks loudly here.
"""

from repro.appserver import ApplicationServer, DynamicScript, HttpRequest, SiteServices
from repro.core import BackEndMonitor, Dependency, DynamicProxyCache
from repro.database import Database, schema
from repro.harness.monitoring import take_snapshot
from repro.harness.warming import CacheWarmer
from repro.network import SimulatedClock
from repro.network.latency import FREE
from repro.workload import PageSpec


def build_everything():
    db = Database("recipes")
    dishes = db.create_table(schema(
        "dishes",
        [("dish_id", "str"), ("cuisine", "str"), ("name", "str"),
         ("minutes", "int")],
    ))
    dishes.create_index("cuisine")
    dishes.insert({"dish_id": "d1", "cuisine": "thai", "name": "Pad See Ew",
                   "minutes": 25})
    dishes.insert({"dish_id": "d2", "cuisine": "thai", "name": "Tom Kha",
                   "minutes": 40})
    dishes.insert({"dish_id": "d3", "cuisine": "oaxacan", "name": "Tlayuda",
                   "minutes": 35})

    services = SiteServices(db=db)
    services.tags.tag(
        "cuisine_listing",
        dependencies=lambda p: (
            Dependency("dishes", where_column="cuisine",
                       where_value=p["cuisine"]),
        ),
    )
    services.tags.tag(
        "dish_of_the_day",
        ttl=3600.0,  # TTL-only freshness: survives catalog inserts
    )

    class CuisineScript(DynamicScript):
        path = "/cuisine.jsp"

        def run(self, ctx):
            cuisine = ctx.request.param("cuisine", "thai")
            ctx.write("<html><body>")
            ctx.block(
                "cuisine_listing",
                {"cuisine": cuisine},
                lambda: "".join(
                    "<li>%s (%d min)</li>" % (row["name"], row["minutes"])
                    for row in db.table("dishes").lookup("cuisine", cuisine)
                ),
            )
            ctx.block(
                "dish_of_the_day",
                {},
                lambda: "<b>Try: %s</b>"
                % next(iter(db.table("dishes").scan()))["name"],
            )
            ctx.write("</body></html>")

    clock = SimulatedClock()
    bem = BackEndMonitor(capacity=1024, clock=clock)
    bem.attach_database(db.bus)
    server = ApplicationServer(services, clock=clock, bem=bem,
                               cost_model=FREE)
    server.register(CuisineScript())
    dpc = DynamicProxyCache(capacity=1024)
    return db, server, bem, dpc


def test_tutorial_end_to_end():
    db, server, bem, dpc = build_everything()
    request = HttpRequest("/cuisine.jsp", {"cuisine": "thai"})

    # Cold -> warm shrinkage (§4 in the tutorial).
    cold = server.handle(request)
    page = dpc.process_response(cold.body)
    assert "Pad See Ew" in page.html
    warm = server.handle(request)
    assert warm.body_bytes < cold.body_bytes
    assert dpc.process_response(warm.body).html == page.html

    # §5: an insert invalidates exactly the listing fragment.
    db.table("dishes").insert(
        {"dish_id": "d4", "cuisine": "thai", "name": "Khao Soi",
         "minutes": 45}
    )
    fresh = server.handle(request)
    assert fresh.meta["misses"] == 1        # listing only
    assert fresh.meta["hits"] == 1          # dish_of_the_day survives
    assert "Khao Soi" in dpc.process_response(fresh.body).html

    # §6: warming + snapshot.
    report = CacheWarmer(server, dpc).warm_pages(
        [PageSpec.create("/cuisine.jsp", {"cuisine": c})
         for c in ("thai", "oaxacan")]
    )
    assert report.requests_replayed == 2
    snapshot = take_snapshot(bem=bem, dpc=dpc)
    assert snapshot.get("bem.fragment_hits") > 0

    # §7: the oracle.
    oracle = server.render_reference_page(request)
    assert dpc.process_response(server.handle(request).body).html == oracle

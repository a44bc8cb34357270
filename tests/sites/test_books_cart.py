"""Tests for the cart flow: session state interleaved with cached content."""

import pytest

from repro.appserver import HttpRequest
from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.network.clock import SimulatedClock
from repro.network.latency import FREE
from repro.sites import books


@pytest.fixture
def stack():
    clock = SimulatedClock()
    bem = BackEndMonitor(capacity=512, clock=clock)
    server = books.build_server(clock=clock, bem=bem, cost_model=FREE)
    bem.attach_database(server.services.db.bus)
    dpc = DynamicProxyCache(capacity=512)
    return server, bem, dpc


def cart_request(action="view", product="", session="shopper"):
    params = {"action": action}
    if product:
        params["productID"] = product
    return HttpRequest("/cart.jsp", params, session_id=session)


def serve(server, dpc, request):
    return dpc.process_response(server.handle(request).body).html


class TestCartFlow:
    def test_add_and_view(self, stack):
        server, bem, dpc = stack
        serve(server, dpc, cart_request("add", "FIC-000"))
        html = serve(server, dpc, cart_request())
        assert "Cart: 1 items" in html
        assert 'class="cart-contents"' in html

    def test_totals_accumulate(self, stack):
        server, bem, dpc = stack
        serve(server, dpc, cart_request("add", "FIC-000"))
        serve(server, dpc, cart_request("add", "FIC-001"))
        html = serve(server, dpc, cart_request())
        assert "Cart: 2 items" in html
        p = server.services.db.table(books.PRODUCTS_TABLE)
        total = p.get("FIC-000")["price"] + p.get("FIC-001")["price"]
        assert "$%.2f" % total in html

    def test_remove_and_clear(self, stack):
        server, bem, dpc = stack
        serve(server, dpc, cart_request("add", "FIC-000"))
        serve(server, dpc, cart_request("remove", "FIC-000"))
        assert "Cart: 0 items" in serve(server, dpc, cart_request())
        serve(server, dpc, cart_request("add", "FIC-001"))
        serve(server, dpc, cart_request("clear"))
        assert "Cart: 0 items" in serve(server, dpc, cart_request())

    def test_unknown_product_ignored(self, stack):
        server, bem, dpc = stack
        serve(server, dpc, cart_request("add", "NOPE-999"))
        assert "Cart: 0 items" in serve(server, dpc, cart_request())

    def test_sessions_are_isolated(self, stack):
        server, bem, dpc = stack
        serve(server, dpc, cart_request("add", "FIC-000", session="alice"))
        html_bob = serve(server, dpc, cart_request(session="bob"))
        assert "Cart: 0 items" in html_bob

    def test_cart_page_reuses_navbar_fragment(self, stack):
        server, bem, dpc = stack
        # Warm the navbar via the catalog page.
        serve(server, dpc, HttpRequest("/catalog.jsp",
                                       {"categoryID": "Fiction"},
                                       session_id="shopper"))
        hits_before = bem.stats.fragment_hits
        serve(server, dpc, cart_request())
        assert bem.stats.fragment_hits > hits_before  # navbar hit

    def test_cart_pages_never_cached_wrongly(self, stack):
        """After mutations, the (idempotent) view page must match the
        oracle — per-session content may never leak between requests.
        The oracle renders against the session as serving left it, so it
        is compared on idempotent requests only: on an 'add' it shows the
        item added a second time."""
        server, bem, dpc = stack
        serve(server, dpc, cart_request("add", "FIC-000"))
        serve(server, dpc, cart_request("add", "SCI-001"))
        view = cart_request()
        html = serve(server, dpc, view)
        assert html == server.render_reference_page(view)

    def test_oracle_leaves_the_cart_alone(self, stack):
        """Rendering the reference page of an 'add' applies it to a copy
        of the session, never to the live cart."""
        server, bem, dpc = stack
        add = cart_request("add", "FIC-000", session="s1")
        assert "Cart: 1 items" in serve(server, dpc, add)
        assert "Cart: 2 items" in server.render_reference_page(add)
        assert "Cart: 1 items" in serve(server, dpc, cart_request(session="s1"))

    def test_cart_status_visible_on_catalog_pages(self, stack):
        server, bem, dpc = stack
        serve(server, dpc, cart_request("add", "FIC-000"))
        html = serve(
            server, dpc,
            HttpRequest("/catalog.jsp", {"categoryID": "Fiction"},
                        session_id="shopper"),
        )
        assert "Cart: 1 items" in html

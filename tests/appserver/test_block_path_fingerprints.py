"""Per-request fingerprints of the origin's tagged-block path, pinned exactly.

The way ``ScriptContext.block`` reaches a monitor may change for speed,
but never what a request costs or returns: the same blocks hit and miss,
the same bytes are generated, and the virtual generation time is the
same float, summed in the same order.  Each case
serves a seeded request mix (with data updates interleaved, so misses,
invalidations and TTL expiries all occur) and reduces every response to
its exact ``generation_s``, block counts, GET/SET counts and a digest of
its body.  The values were recorded before the block path lost its
per-block closures, with an LRU BEM; its 20 slots evict, so those cases
keep LRU, and one more case runs the directory's default policy.

Run this file as a script to print the current fingerprints.
"""

import hashlib
import random

import pytest

from repro.appserver import HttpRequest
from repro.baselines.esi import EsiAssembler
from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.core.replacement import LruPolicy
from repro.network.clock import SimulatedClock
from repro.sites import books, financial, synthetic
from repro.sites.synthetic import SyntheticParams

META_FIELDS = (
    "generation_s", "blocks", "hits", "misses", "generated_bytes",
    "get_count", "set_count",
)


def digest(value) -> str:
    """Short stable digest of a value's ``repr`` (floats repr exactly)."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def response_print(response):
    return tuple(response.meta[name] for name in META_FIELDS) + (
        digest(response.body),
    )


def summarize(prints):
    return {
        "requests": len(prints),
        "hits": sum(p[2] for p in prints),
        "misses": sum(p[3] for p in prints),
        "requests_digest": digest(prints),
    }


def make_monitor(kind, clock, policy=LruPolicy):
    """``(bem, origin_dpc)`` server arguments for one origin mode.

    The capacity-20 BEM evicts, so its replacement policy is part of the
    pinned behaviour: the recorded cases run LRU, whatever the directory's
    default; ``policy=None`` takes the default.
    """
    if kind == "no_cache":
        return None, None
    origin_dpc = DynamicProxyCache(capacity=20) if kind == "backend" else None
    bem = BackEndMonitor(
        capacity=20, clock=clock, policy=policy() if policy is not None else None
    )
    return bem, origin_dpc


def attach(server, monitor):
    if monitor is not None:
        monitor.attach_database(server.services.db.bus)


def run_synthetic(kind, policy=LruPolicy):
    params = SyntheticParams(
        num_pages=12, fragments_per_page=5, fragment_size=300,
        cacheability=0.8, pool_size=30,
    )
    clock = SimulatedClock()
    monitor, origin_dpc = make_monitor(kind, clock, policy)
    server = synthetic.build_server(
        params, clock=clock, bem=monitor, origin_dpc=origin_dpc
    )
    attach(server, monitor)
    rng = random.Random(3)
    prints = []
    for i in range(240):
        if i % 9 == 4:
            synthetic.touch_fragment(server.services, rng.randrange(30))
        request = HttpRequest("/page.jsp", {"pageID": str(rng.randrange(12))})
        prints.append(response_print(server.handle(request)))
    return summarize(prints)


def books_requests(rng):
    users = [None] + ["user%03d" % i for i in range(6)]
    categories = books.DEFAULT_CATEGORIES
    choice = rng.random()
    user = rng.choice(users)
    if choice < 0.5:
        return HttpRequest(
            "/catalog.jsp", {"categoryID": rng.choice(categories)}, user_id=user
        )
    if choice < 0.75:
        product = "%s-%03d" % (rng.choice(categories)[:3].upper(), rng.randrange(8))
        return HttpRequest("/product.jsp", {"productID": product}, user_id=user)
    if choice < 0.9:
        return HttpRequest("/home.jsp", user_id=user)
    product = "%s-%03d" % (rng.choice(categories)[:3].upper(), rng.randrange(8))
    return HttpRequest(
        "/cart.jsp", {"action": "add", "productID": product},
        user_id=user, session_id="s-%s" % user,
    )


def run_books(kind):
    clock = SimulatedClock()
    monitor, origin_dpc = make_monitor(kind, clock)
    server = books.build_server(clock=clock, bem=monitor, origin_dpc=origin_dpc)
    attach(server, monitor)
    products = server.services.db.table(books.PRODUCTS_TABLE)
    product_ids = products.keys()
    rng = random.Random(5)
    prints = []
    for i in range(240):
        if i % 15 == 7:
            product = rng.choice(product_ids)
            price = float(products.get(product)["price"])
            products.update({"price": round(price * 1.1, 2)}, key=product)
        prints.append(response_print(server.handle(books_requests(rng))))
    return summarize(prints)


def run_financial(kind):
    clock = SimulatedClock()
    monitor, origin_dpc = make_monitor(kind, clock)
    server = financial.build_server(clock=clock, bem=monitor, origin_dpc=origin_dpc)
    attach(server, monitor)
    rng = random.Random(7)
    prints = []
    for i in range(240):
        clock.advance(0.5)  # quotes outlive their 5 s TTL now and then
        if i % 6 == 2:
            symbol = rng.choice(financial.DEFAULT_SYMBOLS)
            financial.tick_quote(
                server.services, symbol, rng.uniform(10.0, 200.0), clock.now()
            )
        if rng.random() < 0.6:
            request = HttpRequest(
                "/quote.jsp", {"symbol": rng.choice(financial.DEFAULT_SYMBOLS)}
            )
        else:
            user = rng.choice([None] + ["user%03d" % i for i in range(5)])
            request = HttpRequest("/portfolio.jsp", user_id=user)
        prints.append(response_print(server.handle(request)))
    return summarize(prints)


def run_esi():
    server = books.build_server()
    esi = EsiAssembler(server)
    rng = random.Random(9)
    prints = []
    for _ in range(160):
        esi.clock.advance(5.0)  # long enough for TTL refreshes at the edge
        html, cached = esi.serve(books_requests(rng))
        prints.append((digest(html), cached, esi.clock.now()))
    return {
        "requests": len(prints),
        "template_hits": esi.stats.template_hits,
        "fragments_fetched": esi.stats.fragments_fetched,
        "origin_payload_bytes": esi.stats.origin_payload_bytes,
        "requests_digest": digest(prints),
    }


CASES = {
    ("synthetic", "dpc"): lambda: run_synthetic("dpc"),
    ("synthetic", "dpc-default-policy"): lambda: run_synthetic("dpc", policy=None),
    ("synthetic", "backend"): lambda: run_synthetic("backend"),
    ("books", "dpc"): lambda: run_books("dpc"),
    ("books", "backend"): lambda: run_books("backend"),
    ("books", "no_cache"): lambda: run_books("no_cache"),
    ("financial", "dpc"): lambda: run_financial("dpc"),
    ("esi", "books"): run_esi,
}

#: Recorded with the closure-based block path, except where noted.
EXPECTED = {
    ('books', 'backend'): {'requests': 240, 'hits': 760, 'misses': 181, 'requests_digest': 'bf6fc656074d34c3'},
    ('books', 'dpc'): {'requests': 240, 'hits': 760, 'misses': 181, 'requests_digest': '8a26ff1861976367'},
    ('books', 'no_cache'): {'requests': 240, 'hits': 0, 'misses': 0, 'requests_digest': '3902f5f1042c21d3'},
    ('esi', 'books'): {'requests': 160, 'template_hits': 113, 'fragments_fetched': 16, 'origin_payload_bytes': 43726, 'requests_digest': 'b3de61e4fa16274e'},
    ('financial', 'dpc'): {'requests': 240, 'hits': 524, 'misses': 321, 'requests_digest': 'f2b44f7422b405e9'},
    ('synthetic', 'backend'): {'requests': 240, 'hits': 781, 'misses': 179, 'requests_digest': '26f1f414cf44be0a'},
    ('synthetic', 'dpc'): {'requests': 240, 'hits': 781, 'misses': 179, 'requests_digest': 'da3f20347fef1ad7'},
    # Recorded when the decayed-frequency policy became the default.
    ('synthetic', 'dpc-default-policy'): {'requests': 240, 'hits': 769, 'misses': 191, 'requests_digest': 'c1e585697e08848b'},
}


@pytest.mark.parametrize("case", sorted(CASES), ids="-".join)
def test_block_path_fingerprint_matches_recorded(case):
    assert CASES[case]() == EXPECTED[case]


if __name__ == "__main__":
    for case in sorted(CASES):
        print("    %r: %r," % (case, CASES[case]()))

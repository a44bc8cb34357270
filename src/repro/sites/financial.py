"""A financial portal: the paper's deployment case study, reconstructed.

Two of the paper's scenarios live here:

* The §3.2.1 stock-quote page: given a ticker symbol, the page holds a
  current price quote (valid for seconds), recent headlines (~30 minutes),
  and historical research data (~monthly).  Page-level caches must
  regenerate *everything* at quote frequency; the DPC invalidates only the
  quote fragment.
* The §6/§8 claim that the commercially deployed system produced
  order-of-magnitude reductions in bandwidth and response time "at a major
  financial institution" — the case-study bench drives this portal under a
  personalized workload and measures both.

TTLs (virtual seconds): quote 5 s, headlines 1800 s, historical 2 592 000 s
(30 days), matching the paper's invalidation-frequency story.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..appserver import (
    ApplicationServer,
    DynamicScript,
    PlannedBlock,
    ScriptContext,
    SiteServices,
)
from ..cms import CONTENT_TABLE, ContentRepository, PersonalizationEngine, ProfileStore, PROFILE_TABLE
from ..core.fragments import Dependency
from ..database import Database, schema

QUOTES_TABLE = "quotes"
HISTORY_TABLE = "historical_data"
ACCOUNTS_TABLE = "accounts"

QUOTE_TTL_S = 5.0
HEADLINES_TTL_S = 1800.0
HISTORY_TTL_S = 2_592_000.0

_QUOTES_SCHEMA = schema(
    QUOTES_TABLE,
    [
        ("symbol", "str"),
        ("price", "float"),
        ("change_pct", "float"),
        ("updated_at", "float"),
    ],
    primary_key="symbol",
)

_HISTORY_SCHEMA = schema(
    HISTORY_TABLE,
    [
        ("symbol", "str"),
        ("pe_ratio", "float"),
        ("eps", "float"),
        ("week52_high", "float"),
        ("week52_low", "float"),
    ],
    primary_key="symbol",
)

_ACCOUNTS_SCHEMA = schema(
    ACCOUNTS_TABLE,
    [
        ("user_id", "str"),
        ("balance", "float"),
        ("watchlist", "str"),  # comma-separated symbols
    ],
    primary_key="user_id",
)


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------


def render_quote(quote: Dict[str, object]) -> str:
    """Current price quote for one symbol."""
    return (
        '<div class="quote" data-symbol="%s"><b>%.2f</b>'
        '<span class="chg">%+.2f%%</span></div>'
        % (quote["symbol"], quote["price"], quote["change_pct"])
    )


def render_headlines(symbol: str, items: List[Dict[str, object]]) -> str:
    """Recent headlines list for a symbol or the market."""
    entries = "".join("<li>%s</li>" % item["title"] for item in items)
    return '<ul class="headlines" data-symbol="%s">%s</ul>' % (symbol, entries)


def render_history(history: Dict[str, object]) -> str:
    """Historical research table (P/E, EPS, 52-week range)."""
    return (
        '<table class="history"><tr><td>P/E</td><td>%.1f</td></tr>'
        "<tr><td>EPS</td><td>%.2f</td></tr>"
        "<tr><td>52wk</td><td>%.2f - %.2f</td></tr></table>"
        % (
            history["pe_ratio"],
            history["eps"],
            history["week52_low"],
            history["week52_high"],
        )
    )


def render_account_summary(account: Optional[Dict[str, object]]) -> str:
    """Private account balance block; empty for anonymous."""
    if account is None:
        return ""
    return '<div class="account">Balance: $%.2f</div>' % account["balance"]


def render_watchlist(quotes: List[Dict[str, object]]) -> str:
    """Price table over a user's watched symbols."""
    rows = "".join(
        "<tr><td>%s</td><td>%.2f</td></tr>" % (q["symbol"], q["price"]) for q in quotes
    )
    return '<table class="watchlist">%s</table>' % rows


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------


class QuotePageScript(DynamicScript):
    """``/quote.jsp?symbol=X`` — the §3.2.1 three-fragment page."""

    path = "/quote.jsp"

    def run(self, ctx: ScriptContext) -> None:
        """Emit the three-TTL-class quote page."""
        services = ctx.services
        symbol = ctx.request.param("symbol", "ACME")
        user_id = ctx.session.user_id
        profile = ctx.memo(
            "profile:%s" % (user_id or ""),
            lambda: services.personalization.profile_for(user_id),
            ttl=60.0,
        )

        ctx.write('<html><body class="quote-page">')
        ctx.write_blocks((
            (
                "greeting",
                {"user": user_id or ""},
                None,
                lambda: (
                    '<div class="greeting">Hello, %s</div>' % profile.display_name
                    if profile.registered
                    else ""
                ),
            ),
            (
                "price_quote",
                {"symbol": symbol},
                None,
                lambda: render_quote(
                    services.db.table(QUOTES_TABLE).get(symbol)
                    or {"symbol": symbol, "price": 0.0, "change_pct": 0.0}
                ),
            ),
            (
                "headlines",
                {"symbol": symbol},
                None,
                lambda: render_headlines(
                    symbol, services.repository.by_category(symbol, kind="headline")
                ),
            ),
            (
                "historical",
                {"symbol": symbol},
                None,
                lambda: render_history(
                    services.db.table(HISTORY_TABLE).get(symbol)
                    or {
                        "pe_ratio": 0.0,
                        "eps": 0.0,
                        "week52_high": 0.0,
                        "week52_low": 0.0,
                    }
                ),
            ),
        ))
        ctx.write("</body></html>")


class PortfolioScript(DynamicScript):
    """``/portfolio.jsp`` — the personalized portal page of the deployment."""

    path = "/portfolio.jsp"

    def run(self, ctx: ScriptContext) -> None:
        """Emit the per-user portfolio from shared quote fragments."""
        services = ctx.services
        user_id = ctx.session.user_id or ""
        profile = ctx.memo(
            "profile:%s" % user_id,
            lambda: services.personalization.profile_for(user_id or None),
            ttl=60.0,
        )
        account = ctx.memo(
            "account:%s" % user_id,
            lambda: services.db.table(ACCOUNTS_TABLE).get(user_id),
            ttl=60.0,
        )
        watchlist: List[str] = []
        if account is not None:
            watchlist = [s for s in str(account["watchlist"]).split(",") if s]

        ctx.write("<html><body>")
        plan: List[PlannedBlock] = [
            (
                "greeting",
                {"user": user_id},
                None,
                lambda: (
                    '<div class="greeting">Hello, %s</div>' % profile.display_name
                    if profile.registered
                    else ""
                ),
            ),
            # Account summary: private per-user data; cacheable per-user
            # with a dependency on the account row.
            (
                "account_summary",
                {"user": user_id},
                None,
                lambda: render_account_summary(account),
            ),
        ]
        # One quote fragment per watched symbol: fragments are shared across
        # every user watching that symbol — high reuse despite a fully
        # personalized page, the core win of granular caching.
        for symbol in watchlist:
            plan.append((
                "price_quote",
                {"symbol": symbol},
                None,
                lambda symbol=symbol: render_quote(
                    services.db.table(QUOTES_TABLE).get(symbol)
                    or {"symbol": symbol, "price": 0.0, "change_pct": 0.0}
                ),
            ))
        plan.append((
            "market_headlines",
            {},
            None,
            lambda: render_headlines(
                "MARKET", services.repository.by_category("MARKET", kind="headline")
            ),
        ))
        ctx.write_blocks(plan)
        ctx.write("</body></html>")


# ---------------------------------------------------------------------------
# Site assembly
# ---------------------------------------------------------------------------

DEFAULT_SYMBOLS = ("ACME", "GLOBEX", "INITECH", "UMBRELLA", "STARK", "WAYNE",
                   "TYRELL", "WONKA")


def build_services(
    seed: int = 11,
    symbols: tuple = DEFAULT_SYMBOLS,
    registered_users: int = 20,
    watchlist_size: int = 4,
) -> SiteServices:
    """Create and seed the financial portal's back-end services."""
    rng = random.Random(seed)
    db = Database("financial")
    quotes = db.create_table(_QUOTES_SCHEMA)
    history = db.create_table(_HISTORY_SCHEMA)
    accounts = db.create_table(_ACCOUNTS_SCHEMA)

    repository = ContentRepository(db)
    profiles = ProfileStore(db)
    personalization = PersonalizationEngine(repository, profiles)
    services = SiteServices(
        db=db,
        repository=repository,
        profiles=profiles,
        personalization=personalization,
    )

    for symbol in symbols:
        base = rng.uniform(10.0, 400.0)
        quotes.insert(
            {
                "symbol": symbol,
                "price": round(base, 2),
                "change_pct": round(rng.uniform(-3.0, 3.0), 2),
                "updated_at": 0.0,
            }
        )
        low = base * rng.uniform(0.6, 0.9)
        history.insert(
            {
                "symbol": symbol,
                "pe_ratio": round(rng.uniform(8.0, 40.0), 1),
                "eps": round(rng.uniform(0.5, 12.0), 2),
                "week52_high": round(base * rng.uniform(1.05, 1.4), 2),
                "week52_low": round(low, 2),
            }
        )
        for i in range(3):
            repository.put(
                content_id="%s-head-%d" % (symbol, i),
                kind="headline",
                category=symbol,
                title="%s update %d" % (symbol, i),
                body="Analysts weigh in on %s, item %d." % (symbol, i),
                rank=i,
            )
    for i in range(3):
        repository.put(
            content_id="MARKET-head-%d" % i,
            kind="headline",
            category="MARKET",
            title="Market brief %d" % i,
            body="Broad market commentary, item %d." % i,
            rank=i,
        )

    for i in range(registered_users):
        user_id = "trader%03d" % i
        profiles.register(user_id=user_id, display_name="Trader %03d" % i)
        watched = rng.sample(list(symbols), k=min(watchlist_size, len(symbols)))
        accounts.insert(
            {
                "user_id": user_id,
                "balance": round(rng.uniform(1_000.0, 500_000.0), 2),
                "watchlist": ",".join(watched),
            }
        )

    _tag_blocks(services)
    return services


def build_server(services: Optional[SiteServices] = None, **server_kwargs) -> ApplicationServer:
    """An application server with the portal scripts registered."""
    if services is None:
        services = build_services()
    server = ApplicationServer(services, **server_kwargs)
    server.register(QuotePageScript())
    server.register(PortfolioScript())
    return server


def _tag_blocks(services: SiteServices) -> None:
    """Tagging pass: the three TTL classes of §3.2.1, plus portal blocks."""
    tags = services.tags
    tags.tag(
        "price_quote",
        ttl=QUOTE_TTL_S,
        dependencies=lambda params: (Dependency(QUOTES_TABLE, key=params["symbol"]),),
    )
    tags.tag(
        "headlines",
        ttl=HEADLINES_TTL_S,
        dependencies=lambda params: (
            Dependency(
                CONTENT_TABLE, where_column="category", where_value=params["symbol"]
            ),
        ),
    )
    tags.tag(
        "historical",
        ttl=HISTORY_TTL_S,
        dependencies=lambda params: (Dependency(HISTORY_TABLE, key=params["symbol"]),),
    )
    tags.tag(
        "greeting",
        dependencies=lambda params: (
            (Dependency(PROFILE_TABLE, key=params["user"]),)
            if params.get("user")
            else ()
        ),
    )
    tags.tag(
        "account_summary",
        ttl=60.0,
        dependencies=lambda params: (
            Dependency(ACCOUNTS_TABLE, key=params["user"]),
        ),
    )
    tags.tag(
        "market_headlines",
        ttl=HEADLINES_TTL_S,
        dependencies=lambda params: (
            Dependency(CONTENT_TABLE, where_column="category", where_value="MARKET"),
        ),
    )


def tick_quote(services: SiteServices, symbol: str, price: float, now: float) -> None:
    """Simulate a market tick: update one quote row.

    The database trigger fans out to the BEM, which invalidates exactly the
    ``price_quote?symbol=X`` fragment — headlines and historical survive.
    """
    services.db.table(QUOTES_TABLE).update(
        {"price": round(price, 2), "updated_at": now}, key=symbol
    )

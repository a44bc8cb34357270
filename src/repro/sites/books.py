"""BooksOnline: the paper's running e-commerce example, as a working site.

The paper's motivating scenarios all live here:

* ``/catalog.jsp?categoryID=Fiction`` — the Section 4 example request whose
  category page is assembled from cached fragments;
* registered vs non-registered users submitting the *same URL* and
  (correctly) receiving different pages — the Bob/Alice scenario that
  breaks URL-keyed proxy caches (§3.2.1);
* profile-controlled page layout — dynamic layout (§2.1), fatal to
  fixed-template page assembly (§3.2.2);
* the Personal Greeting / Recommended Products pair derived from one
  user-profile object — the semantic interdependence argument (§3.2.2).

Every view emission goes through the tagging API (each script collects its
page's blocks in page order and writes them in one
``ScriptContext.write_blocks`` call), so the same site runs
uncached (baseline), behind a DPC, behind a page-level cache, or behind an
ESI-style assembler — that is what the comparison benches exercise.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..appserver import (
    NO_PARAMS,
    ApplicationServer,
    DynamicScript,
    PlannedBlock,
    ScriptContext,
    SiteServices,
)
from ..cms import (
    CONTENT_TABLE,
    ContentRepository,
    PersonalizationEngine,
    ProfileStore,
    PROFILE_TABLE,
)
from ..core.fragments import Dependency, FragmentID
from ..database import Database, schema

PRODUCTS_TABLE = "products"
REVIEWS_TABLE = "reviews"

_PRODUCTS_SCHEMA = schema(
    PRODUCTS_TABLE,
    [
        ("product_id", "str"),
        ("category", "str"),
        ("title", "str"),
        ("description", "str"),
        ("price", "float"),
        ("in_stock", "bool"),
    ],
    primary_key="product_id",
)

_REVIEWS_SCHEMA = schema(
    REVIEWS_TABLE,
    [
        ("review_id", "str"),
        ("product_id", "str"),
        ("stars", "int"),
        ("text", "str"),
    ],
    primary_key="review_id",
)


# ---------------------------------------------------------------------------
# Views (presentation layer)
# ---------------------------------------------------------------------------


def render_navbar(categories: List[str]) -> str:
    """Category navigation bar (shared by every page)."""
    links = "".join(
        '<a href="/catalog.jsp?categoryID=%s">%s</a> ' % (c, c) for c in categories
    )
    return "<nav>%s</nav>" % links


def render_greeting(greeting: str) -> str:
    """Personal greeting div; empty string for anonymous visitors."""
    if not greeting:
        return ""
    return '<div class="greeting">%s</div>' % greeting


def render_listing(category: str, products: List[Dict[str, object]]) -> str:
    """Product table for one category."""
    rows = "".join(
        "<tr><td>%s</td><td>%s</td><td>$%.2f</td></tr>"
        % (p["product_id"], p["title"], p["price"])
        for p in products
    )
    return '<table class="listing" data-category="%s">%s</table>' % (category, rows)


def render_recommendations(items: List[Dict[str, object]]) -> str:
    """Recommended-titles list from the personalization engine."""
    entries = "".join("<li>%s</li>" % item["title"] for item in items)
    return '<ul class="recs">%s</ul>' % entries


def render_promos(promos: List[Dict[str, object]]) -> str:
    """Site-wide promotional sidebar."""
    entries = "".join(
        '<div class="promo">%s: %s</div>' % (p["title"], p["body"]) for p in promos
    )
    return '<aside class="promos">%s</aside>' % entries


def render_product(product: Dict[str, object], reviews: List[Dict[str, object]]) -> str:
    """Product detail article with its reviews and average rating."""
    stars = sum(int(r["stars"]) for r in reviews)
    avg = (stars / len(reviews)) if reviews else 0.0
    review_html = "".join(
        '<blockquote data-stars="%d">%s</blockquote>' % (r["stars"], r["text"])
        for r in reviews
    )
    return (
        '<article class="product"><h1>%s</h1><p>%s</p><b>$%.2f</b>'
        '<span class="rating">%.1f</span>%s</article>'
        % (product["title"], product["description"], product["price"], avg, review_html)
    )


def render_cart_status(session) -> str:
    """Per-session cart indicator (never cacheable)."""
    items = session.get("cart_items", 0)
    return '<div class="cart">Cart: %d items</div>' % items


# ---------------------------------------------------------------------------
# Scripts (controllers)
# ---------------------------------------------------------------------------


#: The ids of the tagged blocks without params, built once: a plan
#: carries them as they are.
_NAVBAR_ID = FragmentID.create("navbar")
_PROMOS_ID = FragmentID.create("promos")


def _navbar_html(services: SiteServices) -> str:
    """The navigation bar over the catalog's current categories."""
    products = services.db.table(PRODUCTS_TABLE)
    return render_navbar(sorted({str(row["category"]) for row in products.scan()}))


class CatalogScript(DynamicScript):
    """``/catalog.jsp?categoryID=X`` — the paper's canonical page.

    Layout slots are emitted in the *profile's* order: two users with the
    same URL can get different fragment sets in different orders.
    """

    path = "/catalog.jsp"

    def run(self, ctx: ScriptContext) -> None:
        """Emit the category page in the profile's slot order."""
        services = ctx.services
        category = ctx.request.param("categoryID", "Fiction")
        user_id = ctx.session.user_id

        # §3.2.2 step (1): one profile fetch shared by several fragments.
        profile = ctx.memo(
            "profile:%s" % (user_id or ""),
            lambda: services.personalization.profile_for(user_id),
            ttl=60.0,
        )

        ctx.write("<html><head><title>%s | BooksOnline</title></head><body>" % category)
        plan: List[PlannedBlock] = []
        for slot in services.personalization.layout_for(profile):
            if slot == "navigation":
                plan.append(
                    ("navbar", NO_PARAMS, _NAVBAR_ID, lambda: _navbar_html(services))
                )
            elif slot == "greeting":
                plan.append((
                    "greeting",
                    {"user": user_id or ""},
                    None,
                    lambda: render_greeting(
                        services.personalization.greeting_for(profile)
                    ),
                ))
            elif slot == "main":
                plan.append((
                    "category_listing",
                    {"categoryID": category},
                    None,
                    lambda: render_listing(
                        category,
                        services.db.table(PRODUCTS_TABLE).lookup("category", category),
                    ),
                ))
            elif slot == "recommendations":
                plan.append((
                    "recommendations",
                    {"user": user_id or ""},
                    None,
                    lambda: render_recommendations(
                        services.personalization.recommendations_for(profile)
                    ),
                ))
            elif slot == "promos" and profile.show_promos:
                # The show/hide decision is per-request layout logic made at
                # the origin; the fragment itself is user-independent.  An
                # under-parameterized fragmentID here (keying user-dependent
                # content by {}) would serve wrong pages — the tagging rule
                # is: every output-affecting input joins the parameter list.
                plan.append((
                    "promos",
                    NO_PARAMS,
                    _PROMOS_ID,
                    lambda: render_promos(
                        services.personalization.promos_for(profile)
                    ),
                ))
        # Per-session state: deliberately untagged (never cacheable).
        plan.append(
            ("cart_status", NO_PARAMS, None, lambda: render_cart_status(ctx.session))
        )
        ctx.write_blocks(plan)
        ctx.write("</body></html>")


class ProductScript(DynamicScript):
    """``/product.jsp?productID=X`` — detail page with reviews."""

    path = "/product.jsp"

    def run(self, ctx: ScriptContext) -> None:
        """Emit the product detail page."""
        services = ctx.services
        product_id = ctx.request.param("productID")
        user_id = ctx.session.user_id
        profile = ctx.memo(
            "profile:%s" % (user_id or ""),
            lambda: services.personalization.profile_for(user_id),
            ttl=60.0,
        )

        ctx.write("<html><body>")
        ctx.write_blocks((
            ("navbar", NO_PARAMS, _NAVBAR_ID, lambda: _navbar_html(services)),
            (
                "greeting",
                {"user": user_id or ""},
                None,
                lambda: render_greeting(
                    services.personalization.greeting_for(profile)
                ),
            ),
            (
                "product_detail",
                {"productID": product_id},
                None,
                lambda: render_product(
                    services.db.table(PRODUCTS_TABLE).get(product_id)
                    or {"title": "Unknown", "description": "", "price": 0.0},
                    services.db.table(REVIEWS_TABLE).lookup("product_id", product_id),
                ),
            ),
            ("cart_status", NO_PARAMS, None, lambda: render_cart_status(ctx.session)),
        ))
        ctx.write("</body></html>")


class CartScript(DynamicScript):
    """``/cart.jsp?action=add&productID=X`` — session-mutating interaction.

    Carts are pure per-session state: the cart page is almost entirely
    non-cacheable, yet it still reuses the shared navbar fragment — the
    point being that the DPC composes cached and per-request content in
    one response without any special casing.
    """

    path = "/cart.jsp"

    def run(self, ctx: ScriptContext) -> None:
        """Apply the cart action, then emit the cart page."""
        services = ctx.services
        action = ctx.request.param("action", "view")
        product_id = ctx.request.param("productID", "")
        cart: List[str] = list(ctx.session.get("cart_list", []))

        if action == "add" and product_id:
            if services.db.table(PRODUCTS_TABLE).get(product_id) is not None:
                cart.append(product_id)
        elif action == "remove" and product_id in cart:
            cart.remove(product_id)
        elif action == "clear":
            cart = []
        ctx.session.put("cart_list", cart)
        ctx.session.put("cart_items", len(cart))

        # Cart contents: untagged, per-session, regenerated every time.
        def render_cart() -> str:
            rows = []
            for pid in cart:
                product = services.db.table(PRODUCTS_TABLE).get(pid)
                if product is not None:
                    rows.append(
                        "<tr><td>%s</td><td>$%.2f</td></tr>"
                        % (product["title"], product["price"])
                    )
            total = sum(
                float(services.db.table(PRODUCTS_TABLE).get(pid)["price"])
                for pid in cart
                if services.db.table(PRODUCTS_TABLE).get(pid) is not None
            )
            return (
                '<table class="cart-contents">%s'
                '<tr><td>Total</td><td>$%.2f</td></tr></table>'
                % ("".join(rows), total)
            )

        ctx.write("<html><body>")
        ctx.write_blocks((
            ("navbar", NO_PARAMS, _NAVBAR_ID, lambda: _navbar_html(services)),
            ("cart_contents", NO_PARAMS, None, render_cart),
            ("cart_status", NO_PARAMS, None, lambda: render_cart_status(ctx.session)),
        ))
        ctx.write("</body></html>")


class HomeScript(DynamicScript):
    """``/home.jsp`` — personalized portal home."""

    path = "/home.jsp"

    def run(self, ctx: ScriptContext) -> None:
        """Emit the personalized portal home page."""
        services = ctx.services
        user_id = ctx.session.user_id
        profile = ctx.memo(
            "profile:%s" % (user_id or ""),
            lambda: services.personalization.profile_for(user_id),
            ttl=60.0,
        )
        ctx.write("<html><body>")
        plan: List[PlannedBlock] = []
        for slot in services.personalization.layout_for(profile):
            if slot == "navigation":
                plan.append(
                    ("navbar", NO_PARAMS, _NAVBAR_ID, lambda: _navbar_html(services))
                )
            elif slot == "greeting":
                plan.append((
                    "greeting",
                    {"user": user_id or ""},
                    None,
                    lambda: render_greeting(
                        services.personalization.greeting_for(profile)
                    ),
                ))
            elif slot == "recommendations":
                plan.append((
                    "recommendations",
                    {"user": user_id or ""},
                    None,
                    lambda: render_recommendations(
                        services.personalization.recommendations_for(profile)
                    ),
                ))
            elif slot == "promos" and profile.show_promos:
                plan.append((
                    "promos",
                    NO_PARAMS,
                    _PROMOS_ID,
                    lambda: render_promos(services.personalization.promos_for(profile)),
                ))
        ctx.write_blocks(plan)
        ctx.write("</body></html>")


# ---------------------------------------------------------------------------
# Site assembly
# ---------------------------------------------------------------------------

#: Content categories used when seeding the catalog.
DEFAULT_CATEGORIES = ("Fiction", "NonFiction", "Science", "History", "Children")


def build_services(
    seed: int = 7,
    categories: tuple = DEFAULT_CATEGORIES,
    products_per_category: int = 8,
    reviews_per_product: int = 2,
    registered_users: int = 10,
) -> SiteServices:
    """Create and seed every back-end service for BooksOnline."""
    rng = random.Random(seed)
    db = Database("booksonline")
    products = db.create_table(_PRODUCTS_SCHEMA)
    products.create_index("category")
    reviews = db.create_table(_REVIEWS_SCHEMA)
    reviews.create_index("product_id")

    repository = ContentRepository(db)
    profiles = ProfileStore(db)
    personalization = PersonalizationEngine(repository, profiles)
    services = SiteServices(
        db=db,
        repository=repository,
        profiles=profiles,
        personalization=personalization,
    )

    _seed_catalog(rng, products, reviews, categories, products_per_category,
                  reviews_per_product)
    _seed_cms(rng, repository, categories)
    _seed_users(rng, profiles, categories, registered_users)
    _tag_blocks(services)
    return services


def build_server(services: Optional[SiteServices] = None, **server_kwargs) -> ApplicationServer:
    """An application server with the BooksOnline scripts registered."""
    if services is None:
        services = build_services()
    server = ApplicationServer(services, **server_kwargs)
    server.register(CatalogScript())
    server.register(ProductScript())
    server.register(HomeScript())
    server.register(CartScript())
    return server


def _seed_catalog(rng, products, reviews, categories, per_category, per_product) -> None:
    adjectives = ("Silent", "Hidden", "Last", "Golden", "Distant", "Broken", "Lost")
    nouns = ("Empire", "River", "Garden", "Theorem", "Voyage", "Archive", "Mirror")
    review_texts = (
        "Couldn't put it down.",
        "A thorough treatment of the subject.",
        "Not what I expected, but rewarding.",
        "The middle chapters drag a little.",
    )
    for category in categories:
        for i in range(per_category):
            product_id = "%s-%03d" % (category[:3].upper(), i)
            title = "The %s %s" % (rng.choice(adjectives), rng.choice(nouns))
            products.insert(
                {
                    "product_id": product_id,
                    "category": category,
                    "title": title,
                    "description": "A %s title about the %s."
                    % (category.lower(), rng.choice(nouns).lower()),
                    "price": round(rng.uniform(5.0, 60.0), 2),
                    "in_stock": rng.random() > 0.1,
                }
            )
            for j in range(per_product):
                reviews.insert(
                    {
                        "review_id": "%s-r%d" % (product_id, j),
                        "product_id": product_id,
                        "stars": rng.randint(1, 5),
                        "text": rng.choice(review_texts),
                    }
                )


def _seed_cms(rng, repository: ContentRepository, categories) -> None:
    for category in categories:
        for i in range(3):
            repository.put(
                content_id="%s-head-%d" % (category, i),
                kind="headline",
                category=category,
                title="%s news %d" % (category, i),
                body="Latest developments in %s, item %d." % (category, i),
                rank=i,
            )
        repository.put(
            content_id="%s-promo" % category,
            kind="promo",
            category=category,
            title="%s sale" % category,
            body="20%% off selected %s titles this week." % category,
            rank=rng.randint(0, 9),
        )


def _seed_users(rng, profiles: ProfileStore, categories, count: int) -> None:
    layouts = (
        ["navigation", "greeting", "main", "recommendations", "promos"],
        ["greeting", "navigation", "main", "promos", "recommendations"],
        ["navigation", "main", "greeting", "recommendations", "promos"],
    )
    for i in range(count):
        preferred = rng.sample(list(categories), k=min(2, len(categories)))
        profiles.register(
            user_id="user%03d" % i,
            display_name="User %03d" % i,
            preferred_categories=preferred,
            layout_order=list(rng.choice(layouts)),
            show_promos=rng.random() > 0.2,
        )


def _tag_blocks(services: SiteServices) -> None:
    """The initialization-phase tagging pass (§4.3.1) for BooksOnline."""
    tags = services.tags
    tags.tag(
        "navbar",
        ttl=600.0,
        dependencies=lambda params: (Dependency(PRODUCTS_TABLE, column="category"),),
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
        "category_listing",
        dependencies=lambda params: (
            Dependency(
                PRODUCTS_TABLE,
                where_column="category",
                where_value=params["categoryID"],
            ),
        ),
    )
    tags.tag(
        "recommendations",
        ttl=300.0,
        dependencies=lambda params: (
            Dependency(CONTENT_TABLE),
            *(
                (Dependency(PROFILE_TABLE, key=params["user"]),)
                if params.get("user")
                else ()
            ),
        ),
    )
    tags.tag(
        "promos",
        ttl=300.0,
        dependencies=lambda params: (
            Dependency(CONTENT_TABLE, where_column="kind", where_value="promo"),
        ),
    )
    tags.tag(
        "product_detail",
        dependencies=lambda params: (
            Dependency(PRODUCTS_TABLE, key=params["productID"]),
            Dependency(
                REVIEWS_TABLE,
                where_column="product_id",
                where_value=params["productID"],
            ),
        ),
    )
    # cart_status is deliberately NOT tagged: per-session, never cacheable.

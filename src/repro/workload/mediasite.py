"""A news/media site: the high-churn second domain.

Where the shop's pain point is personalization, a news site's is
*churn*: breaking articles are edited many times per hour, the home
page reorders constantly, and a live ticker changes every few seconds.
Expiration-based caching must choose between staleness and misses;
invalidation-based caching (the Cache Sketch) sidesteps the dilemma.

The module reuses the generic trace format: ``home``/``category``/
``product`` page kinds map to the front page, sections, and articles,
so every existing workload generator (including the flash-sale
composer) replays unchanged against this site.
"""

from __future__ import annotations

from typing import List

from repro.browser.page import PageResource, PageSpec
from repro.http.url import URL
from repro.origin.query import Eq, Query
from repro.origin.site import (
    PersonalizationKind,
    ResourceKind,
    ResourceSpec,
    Site,
)
from repro.workload.catalog import Catalog
from repro.workload.pages import PageBuilder

SIZES = {
    "html": 60_000,  # article pages are text-heavy
    "asset": 120_000,
    "image": 150_000,
    "api": 4_000,
    "ticker": 1_500,
    "block": 2_000,
}

SHARED_ASSETS = ("bundle.js", "style.css", "masthead.png")


def build_media_site(catalog: Catalog, store_backend=None) -> Site:
    """A news site whose "articles" are the catalog's products.

    The catalog abstraction carries over directly: ``product_id`` is
    the article id, ``category`` the section, ``price`` repurposed as a
    relevance score the home page ranks by. Background
    :class:`ProductUpdate` events become article edits.
    """
    from repro.origin.store import DocumentStore

    site = Site(store=DocumentStore(backend=store_backend))
    site.add_route(
        ResourceSpec(
            name="article-image",
            pattern="/static/img/{name}",
            kind=ResourceKind.STATIC,
            doc_keys=lambda p: [f"assets/img-{p['name']}"],
            size_bytes=SIZES["image"],
        )
    )
    site.add_route(
        ResourceSpec(
            name="asset",
            pattern="/static/{name}",
            kind=ResourceKind.STATIC,
            doc_keys=lambda p: [f"assets/{p['name']}"],
            size_bytes=SIZES["asset"],
        )
    )
    site.add_route(
        ResourceSpec(
            name="front-page",
            pattern="/",
            kind=ResourceKind.QUERY,
            personalization=PersonalizationKind.SEGMENT,
            # The front page ranks all articles by relevance; any edit
            # to a ranked article invalidates it.
            query=lambda p: Query(
                "products", order_by="price", descending=True, limit=30
            ),
            size_bytes=SIZES["html"],
        )
    )
    site.add_route(
        ResourceSpec(
            name="article",
            pattern="/product/{id}",  # trace kind "product" = article
            kind=ResourceKind.PAGE,
            personalization=PersonalizationKind.SEGMENT,
            doc_keys=lambda p: [f"products/{p['id']}"],
            size_bytes=SIZES["html"],
        )
    )
    site.add_route(
        ResourceSpec(
            name="section",
            pattern="/category/{name}",  # trace kind "category" = section
            kind=ResourceKind.QUERY,
            personalization=PersonalizationKind.SEGMENT,
            query=lambda p: Query(
                "products", Eq("category", p["name"]), limit=30
            ),
            size_bytes=SIZES["html"],
        )
    )
    site.add_route(
        ResourceSpec(
            name="live-ticker",
            pattern="/api/ticker",
            kind=ResourceKind.API,
            doc_keys=lambda p: ["content/ticker"],
            # Seconds-fresh by design: a very short explicit TTL.
            ttl_hint=5.0,
            size_bytes=SIZES["ticker"],
        )
    )
    site.add_route(
        ResourceSpec(
            name="bookmarks",
            pattern="/api/blocks/cart",  # trace cart events = bookmarks
            kind=ResourceKind.FRAGMENT,
            personalization=PersonalizationKind.USER,
            size_bytes=SIZES["block"],
        )
    )
    _populate(site, catalog)
    return site


def _populate(site: Site, catalog: Catalog) -> None:
    store = site.store
    for product in catalog.products:
        store.put(
            "products",
            product.product_id,
            {
                "category": product.category,
                "price": product.price,  # relevance score
                "tags": list(product.tags),
            },
        )
        store.put(
            "assets",
            f"img-{product.product_id}.jpg",
            {"kind": "image", "article": product.product_id},
        )
    for name in SHARED_ASSETS:
        store.put("assets", name, {"kind": "asset", "name": name})
    store.put("content", "ticker", {"headlines": []})


class MediaPageBuilder(PageBuilder):
    """Maps the generic trace page kinds onto the media site.

    Shares :meth:`PageBuilder.for_view`'s once-per-view memo; only the
    page composition differs.
    """

    def home(self) -> PageSpec:
        return PageSpec(
            name="front-page",
            html=URL.parse("/"),
            resources=self._common_resources(),
        )

    def section(self, name: str) -> PageSpec:
        return PageSpec(
            name=f"section:{name}",
            html=URL.parse(f"/category/{name}"),
            resources=self._common_resources(),
        )

    def article(self, article_id: str) -> PageSpec:
        return PageSpec(
            name=f"article:{article_id}",
            html=URL.parse(f"/product/{article_id}"),
            resources=self._common_resources()
            + [
                PageResource(
                    URL.parse(f"/static/img/{article_id}.jpg"), wave=1
                )
            ],
        )

    def _build_view(self, page_kind: str, target: str) -> PageSpec:
        if page_kind == "home":
            return self.home()
        if page_kind == "category":
            return self.section(target)
        if page_kind == "product":
            return self.article(target)
        raise ValueError(f"unknown page kind {page_kind!r}")

    def _common_resources(self) -> List[PageResource]:
        return [
            PageResource(URL.parse(f"/static/{name}"), wave=1)
            for name in SHARED_ASSETS
        ] + [
            PageResource(URL.parse("/api/ticker"), wave=1),
            PageResource(URL.parse("/api/blocks/cart"), wave=1),
        ]

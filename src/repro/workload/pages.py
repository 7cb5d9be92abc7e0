"""Page composition: which resources each page kind loads."""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.browser.page import PageResource, PageSpec
from repro.http.url import URL

#: Shared assets every page references (wave 1).
SHARED_ASSETS = ("app.js", "style.css", "logo.png")


class PageBuilder:
    """Builds :class:`PageSpec` objects for the e-commerce site.

    Wave structure mirrors real pages: the HTML blocks everything;
    wave 1 holds assets and the user's cart block (referenced directly
    from the HTML); wave 2 holds content discovered later
    (recommendations fetched by the app script).

    :meth:`for_view` resolves each ``(page_kind, target)`` once and hands
    every later view the same :class:`PageSpec`; page loading only reads
    it (pinned by ``tests/workload/test_site_and_pages.py``).
    """

    def __init__(self) -> None:
        self._views: Dict[Tuple[str, str], PageSpec] = {}

    def home(self) -> PageSpec:
        return PageSpec(
            name="home",
            html=URL.parse("/"),
            resources=self._common_resources()
            + [PageResource(URL.parse("/api/recommendations"), wave=2)],
        )

    def category(self, name: str) -> PageSpec:
        return PageSpec(
            name=f"category:{name}",
            html=URL.parse(f"/category/{name}"),
            resources=self._common_resources(),
        )

    def product(self, product_id: str) -> PageSpec:
        return PageSpec(
            name=f"product:{product_id}",
            html=URL.parse(f"/product/{product_id}"),
            resources=self._common_resources()
            + [
                PageResource(
                    URL.parse(f"/static/img/{product_id}.jpg"), wave=1
                ),
                PageResource(URL.parse("/api/recommendations"), wave=2),
            ],
        )

    def for_view(self, page_kind: str, target: str) -> PageSpec:
        """Resolve a trace event's (kind, target) to its page spec."""
        page = self._views.get((page_kind, target))
        if page is None:
            page = self._views[(page_kind, target)] = self._build_view(
                page_kind, target
            )
        return page

    def _build_view(self, page_kind: str, target: str) -> PageSpec:
        if page_kind == "home":
            return self.home()
        if page_kind == "category":
            return self.category(target)
        if page_kind == "product":
            return self.product(target)
        raise ValueError(f"unknown page kind {page_kind!r}")

    def _common_resources(self) -> List[PageResource]:
        return [
            PageResource(URL.parse(f"/static/{name}"), wave=1)
            for name in SHARED_ASSETS
        ] + [PageResource(URL.parse("/api/blocks/cart"), wave=1)]

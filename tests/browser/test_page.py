"""Tests for the page load engine."""

import pytest

from repro.browser import (
    BrowserClient,
    PageLoadEngine,
    PageLoadResult,
    PageResource,
    PageSpec,
    TransportMode,
)
from repro.browser import page as page_module
from repro.http import URL

from tests.browser.conftest import CLIENT_ORIGIN, run_fetch


def page_spec(asset_count=2, waves=(1,)):
    resources = []
    names = ["app.js", "style.css", "logo.png"]
    for wave in waves:
        for name in names[:asset_count]:
            resources.append(
                PageResource(URL.parse(f"/static/{wave}-{name}"), wave=wave)
            )
    return PageSpec(
        name="test-page", html=URL.parse("/page/1"), resources=resources
    )


@pytest.fixture
def loader(env, transport, site):
    # Register the wave-prefixed asset documents the specs reference.
    for wave in (1, 2):
        for name in ("app.js", "style.css", "logo.png"):
            site.store.put("assets", f"{wave}-{name}", {"name": name})
    client = BrowserClient("client", transport, mode=TransportMode.DIRECT)
    return PageLoadEngine(env, client)


class TestPageSpec:
    def test_waves_grouped_and_ordered(self):
        spec = PageSpec(
            name="p",
            html=URL.parse("/page/1"),
            resources=[
                PageResource(URL.parse("/static/late.js"), wave=2),
                PageResource(URL.parse("/static/early.js"), wave=1),
            ],
        )
        waves = spec.waves()
        assert len(waves) == 2
        assert waves[0][0].url.path == "/static/early.js"

    def test_wave_zero_rejected(self):
        with pytest.raises(ValueError):
            PageResource(URL.parse("/x"), wave=0)

    def test_empty_page_has_no_waves(self):
        spec = PageSpec(name="p", html=URL.parse("/page/1"))
        assert spec.waves() == []


class TestPageLoad:
    def test_single_wave_parallel_timing(self, env, loader):
        result = run_fetch(env, loader.load(page_spec(asset_count=3)))
        assert isinstance(result, PageLoadResult)
        # HTML round trip + one parallel wave round trip.
        assert result.plt == pytest.approx(2 * 2 * CLIENT_ORIGIN)
        assert result.html_at - result.started_at == pytest.approx(
            2 * CLIENT_ORIGIN
        )
        assert len(result.responses) == 4

    def test_two_waves_are_sequential(self, env, loader):
        result = run_fetch(
            env, loader.load(page_spec(asset_count=2, waves=(1, 2)))
        )
        assert result.plt == pytest.approx(3 * 2 * CLIENT_ORIGIN)

    def test_connection_limit_serializes_batches(
        self, env, transport, site, monkeypatch
    ):
        monkeypatch.setattr(page_module, "MAX_PARALLEL", 4)
        for i in range(8):
            site.store.put("assets", f"file{i}.js", {"i": i})
        client = BrowserClient("client", transport, mode=TransportMode.DIRECT)
        loader = PageLoadEngine(env, client)
        spec = PageSpec(
            name="heavy",
            html=URL.parse("/page/1"),
            resources=[
                PageResource(URL.parse(f"/static/file{i}.js")) for i in range(8)
            ],
        )
        result = run_fetch(env, loader.load(spec))
        # 8 assets at parallelism 4 -> two batches after the HTML.
        assert result.plt == pytest.approx(3 * 2 * CLIENT_ORIGIN)

    def test_one_connection_fetches_assets_one_by_one(
        self, env, loader, monkeypatch
    ):
        monkeypatch.setattr(page_module, "MAX_PARALLEL", 1)
        result = run_fetch(env, loader.load(page_spec(asset_count=3)))
        # HTML round trip, then one round trip per asset.
        assert result.plt == pytest.approx(4 * 2 * CLIENT_ORIGIN)
        assert len(result.responses) == 4

    def test_repeat_load_is_fully_cached(self, env, loader):
        run_fetch(env, loader.load(page_spec(asset_count=2)))
        start = env.now
        result = run_fetch(env, loader.load(page_spec(asset_count=2)))
        assert result.plt == 0.0
        assert [r.served_by for r in result.responses] == ["browser:client"] * 3

    def test_served_by_counts(self, env, loader):
        result = run_fetch(env, loader.load(page_spec(asset_count=2)))
        assert [r.served_by for r in result.responses] == ["origin"] * 3

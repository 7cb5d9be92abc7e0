"""Tests for catalog generation."""

import random
from collections import Counter

import pytest

from repro.workload import Catalog, CatalogConfig, generate_catalog


@pytest.fixture
def catalog():
    return generate_catalog(CatalogConfig(n_products=100), random.Random(0))


def test_config_validation():
    with pytest.raises(ValueError):
        CatalogConfig(n_products=0)
    with pytest.raises(ValueError):
        CatalogConfig(zipf_s=-1.0)


def test_price_range_is_not_reversed():
    # uniform(300, 250) draws prices outside any range the config names.
    with pytest.raises(ValueError, match="min_price.*max_price"):
        CatalogConfig(min_price=300.0, max_price=250.0)
    assert CatalogConfig(min_price=9.0, max_price=9.0).max_price == 9.0


def test_generation_is_deterministic():
    a = generate_catalog(CatalogConfig(n_products=50), random.Random(7))
    b = generate_catalog(CatalogConfig(n_products=50), random.Random(7))
    assert a.products == b.products


def test_product_count_and_ids(catalog):
    assert len(catalog) == 100
    assert catalog.products[0].product_id == "p0"
    assert catalog.product("p42").product_id == "p42"


def test_prices_within_bounds(catalog):
    config = catalog.config
    for product in catalog.products:
        assert config.min_price <= product.price <= config.max_price


def test_all_categories_used(catalog):
    categories = {p.category for p in catalog.products}
    assert categories == set(catalog.config.categories)


def test_zipf_sampling_prefers_low_ranks(catalog):
    rng = random.Random(1)
    counts = Counter(
        catalog.sample_product(rng).product_id for _ in range(5000)
    )
    # The most popular product is sampled far more than a mid-rank one.
    assert counts["p0"] > counts.get("p50", 0) * 3


def test_uniform_when_zipf_zero():
    catalog = generate_catalog(
        CatalogConfig(n_products=10, zipf_s=0.0), random.Random(0)
    )
    rng = random.Random(2)
    counts = Counter(
        catalog.sample_product(rng).product_id for _ in range(10_000)
    )
    assert max(counts.values()) < 2 * min(counts.values())

"""Product catalog generation with Zipf popularity."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

DEFAULT_CATEGORIES = (
    "shoes",
    "shirts",
    "jackets",
    "accessories",
    "sports",
    "sale",
)


@dataclass
class CatalogConfig:
    """Knobs of catalog generation."""

    n_products: int = 500
    categories: tuple = DEFAULT_CATEGORIES
    #: Zipf exponent of product view popularity; ~0.8-1.0 is typical
    #: for e-commerce catalogs.
    zipf_s: float = 0.9
    min_price: float = 5.0
    max_price: float = 250.0

    def __post_init__(self) -> None:
        if self.n_products <= 0:
            raise ValueError(f"n_products must be positive: {self.n_products}")
        if self.zipf_s < 0:
            raise ValueError(f"zipf_s must be non-negative: {self.zipf_s}")


@dataclass(frozen=True)
class Product:
    """One catalog entry."""

    product_id: str
    category: str
    price: float
    tags: tuple


@dataclass
class Catalog:
    """The generated catalog plus its popularity distribution."""

    products: List[Product]
    config: CatalogConfig
    _weights: List[float] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self._weights:
            s = self.config.zipf_s
            self._weights = [
                1.0 / (rank**s) for rank in range(1, len(self.products) + 1)
            ]

    def __len__(self) -> int:
        return len(self.products)

    def product(self, product_id: str) -> Product:
        index = int(product_id[1:])  # ids are "p0", "p1", ...
        return self.products[index]

    def sample_product(self, rng: random.Random) -> Product:
        """Draw a product by Zipf popularity (rank = generation order)."""
        return rng.choices(self.products, weights=self._weights, k=1)[0]

    def sample_category(self, rng: random.Random) -> str:
        return rng.choice(self.config.categories)


def generate_catalog(
    config: CatalogConfig, rng: random.Random
) -> Catalog:
    """Generate a catalog deterministically from ``rng``."""
    products = []
    tag_pool = ("new", "sale", "eco", "premium", "limited")
    for index in range(config.n_products):
        category = config.categories[index % len(config.categories)]
        price = round(rng.uniform(config.min_price, config.max_price), 2)
        tags = tuple(
            tag for tag in tag_pool if rng.random() < 0.2
        )
        products.append(
            Product(
                product_id=f"p{index}",
                category=category,
                price=price,
                tags=tags,
            )
        )
    return Catalog(products=products, config=config)

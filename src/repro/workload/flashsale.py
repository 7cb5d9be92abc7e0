"""Flash-sale workload: the cache-hostile scenario from the paper's
introduction.

A flash sale is everything that breaks classic caching at once: a write
burst (every sale item repriced at the start and end of the sale), a
traffic spike concentrated on exactly those items, and personalized
prices on top. This module composes a normal background trace with a
sale window and exposes phase boundaries so experiments can report
during-sale vs. outside-sale metrics separately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.knobs import NON_NEGATIVE, POSITIVE, Domain, integer, knob, knobs
from repro.workload.catalog import Catalog
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.trace import PageView, ProductUpdate, WorkloadTrace
from repro.workload.users import UserPopulation


@dataclass
@knobs
class FlashSaleConfig:
    """Shape of the sale event."""

    #: Sale window in simulated seconds.
    start: float = knob(1200.0, NON_NEGATIVE)
    end: float = knob(1800.0, POSITIVE)
    #: Category whose products go on sale.
    category: str = "sale"
    #: Price multiplier during the sale.
    discount: float = knob(0.7, Domain("in (0, 1]", lambda v: 0 < v <= 1))
    #: Extra sale-page sessions per second during the window, on top of
    #: the background traffic.
    spike_rate: float = knob(1.0, NON_NEGATIVE)
    #: Page views per spike session (home → sale category → products).
    spike_session_length: int = knob(3, integer(1))

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"empty sale window [{self.start}, {self.end})")

    def phase_of(self, at: float) -> str:
        """"before" / "during" / "after" the sale."""
        if at < self.start:
            return "before"
        if at < self.end:
            return "during"
        return "after"


def make_flash_sale_trace(
    catalog: Catalog,
    users: UserPopulation,
    workload: WorkloadConfig,
    sale: FlashSaleConfig,
    rng: random.Random,
) -> WorkloadTrace:
    """Background traffic + the sale's write burst and traffic spike."""
    if sale.end > workload.duration:
        raise ValueError(
            f"sale ends at {sale.end} but the trace lasts "
            f"{workload.duration}"
        )
    trace = WorkloadGenerator(catalog, users, workload).generate(rng)
    sale_products = [
        product
        for product in catalog.products
        if product.category == sale.category
    ]
    if not sale_products:
        raise ValueError(f"no products in category {sale.category!r}")

    events: List = list(trace.events)
    # The write bursts: reprice every sale item at start and end.
    for product in sale_products:
        events.append(
            ProductUpdate(
                at=sale.start,
                product_id=product.product_id,
                changes=(("price", round(product.price * sale.discount, 2)),),
            )
        )
        events.append(
            ProductUpdate(
                at=sale.end,
                product_id=product.product_id,
                changes=(("price", product.price),),
            )
        )
    # The traffic spike: short sale-focused sessions.
    now = sale.start
    while True:
        now += rng.expovariate(sale.spike_rate) if sale.spike_rate else (
            sale.end
        )
        if now >= sale.end:
            break
        user = users.sample(rng)
        at = now
        events.append(
            PageView(
                at=at,
                user_id=user.user_id,
                page_kind="category",
                target=sale.category,
            )
        )
        for _ in range(sale.spike_session_length - 1):
            at += rng.expovariate(0.5)
            if at >= sale.end:
                break
            product = rng.choice(sale_products)
            events.append(
                PageView(
                    at=at,
                    user_id=user.user_id,
                    page_kind="product",
                    target=product.product_id,
                )
            )

    result = WorkloadTrace(events=events, duration=workload.duration)
    result.sort()
    result.validate()
    return result

"""The workload generator: sessions + write streams → trace."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.knobs import (
    AT_LEAST_ONE,
    FRACTION,
    NON_NEGATIVE,
    POSITIVE,
    integer,
    knob,
    knobs,
)
from repro.workload.catalog import Catalog
from repro.workload.trace import (
    AccessUser,
    CartAdd,
    EraseUser,
    PageView,
    ProductUpdate,
    TxnRead,
    UserEvent,
    WorkloadTrace,
)
from repro.workload.users import UserPopulation


@dataclass
@knobs
class WorkloadConfig:
    """Traffic shape knobs."""

    duration: float = knob(
        3600.0, POSITIVE, help="simulated seconds of traffic to generate"
    )
    session_rate: float = knob(
        0.5, POSITIVE, help="session arrivals per second across the whole population"
    )
    #: Mean page views per session (geometric).
    mean_session_length: float = knob(5.0, AT_LEAST_ONE)
    #: Mean think time between page views (exponential), seconds.
    think_time_mean: float = knob(15.0, POSITIVE)
    write_rate: float = knob(
        0.05, NON_NEGATIVE, help="background product updates per second (Poisson)"
    )
    #: Zipf exponent for which products get updated (hot items churn).
    write_zipf_s: float = knob(0.5, NON_NEGATIVE)
    #: Probability that a product page view is followed by a cart add.
    cart_add_prob: float = knob(0.10, FRACTION)
    #: Navigation mix after the first page: probabilities of going to a
    #: category page / product page / home. Must sum to 1.
    nav_category: float = knob(0.35, FRACTION)
    nav_product: float = knob(0.55, FRACTION)
    nav_home: float = knob(0.10, FRACTION)
    txn_mix: float = knob(
        0.0,
        FRACTION,
        help="probability that a page view is followed by a multi-key read "
        "transaction (0 disables transactions; traces stay bit-identical)",
        metavar="FRACTION",
    )
    txn_keys: int = knob(
        3, integer(1), help="distinct keys per transaction (default 3)"
    )
    #: Zipf exponent for which products a transaction reads.
    txn_zipf_s: float = knob(0.7, NON_NEGATIVE)
    #: GDPRbench-style mix: fraction of active logged-in users who file
    #: an Art. 17 erasure request after their last activity (account
    #: deletion — the user leaves, then asks to be forgotten).
    erase_fraction: float = knob(0.0, FRACTION)
    #: Art. 15 subject-access requests per second (Poisson, sampled
    #: over the active logged-in population) interleaved with traffic.
    access_rate: float = knob(0.0, NON_NEGATIVE)

    def __post_init__(self) -> None:
        nav_total = self.nav_category + self.nav_product + self.nav_home
        if abs(nav_total - 1.0) > 1e-6:
            raise ValueError(f"navigation mix sums to {nav_total}")


class WorkloadGenerator:
    """Generates replayable traces from a catalog and a population."""

    def __init__(
        self,
        catalog: Catalog,
        users: UserPopulation,
        config: Optional[WorkloadConfig] = None,
    ) -> None:
        self.catalog = catalog
        self.users = users
        self.config = config or WorkloadConfig()
        self._txn_weights: Optional[List[float]] = None

    def generate(self, rng: random.Random) -> WorkloadTrace:
        """Produce one complete trace."""
        trace = WorkloadTrace(duration=self.config.duration)
        trace.events.extend(self._session_events(rng))
        trace.events.extend(self._write_events(rng))
        trace.events.extend(self._gdpr_events(trace.events, rng))
        trace.sort()
        trace.validate()
        return trace

    # -- sessions -----------------------------------------------------------

    def _session_events(self, rng: random.Random) -> List:
        events: List = []
        now = 0.0
        config = self.config
        while True:
            now += rng.expovariate(config.session_rate)
            if now >= config.duration:
                break
            events.extend(self._one_session(now, rng))
        return events

    def _one_session(self, start: float, rng: random.Random) -> List:
        config = self.config
        user = self.users.sample(rng)
        events: List = []
        # Geometric session length, at least one page view.
        length = 1
        while rng.random() < 1.0 - 1.0 / config.mean_session_length:
            length += 1
        now = start
        # Sessions start at the home page (the common entry point).
        page_kind, target = "home", ""
        for _ in range(length):
            if now >= config.duration:
                break
            events.append(
                PageView(
                    at=now,
                    user_id=user.user_id,
                    page_kind=page_kind,
                    target=target,
                )
            )
            if (
                page_kind == "product"
                and user.logged_in
                and rng.random() < config.cart_add_prob
            ):
                cart_at = now + rng.expovariate(1.0 / 2.0)
                if cart_at < config.duration:
                    events.append(
                        CartAdd(
                            at=cart_at,
                            user_id=user.user_id,
                            product_id=target,
                        )
                    )
            if config.txn_mix > 0 and rng.random() < config.txn_mix:
                txn_at = now + rng.expovariate(1.0 / 2.0)
                if txn_at < config.duration:
                    events.append(
                        TxnRead(
                            at=txn_at,
                            user_id=user.user_id,
                            product_ids=self._txn_key_set(rng),
                        )
                    )
            page_kind, target = self._next_page(page_kind, target, rng)
            now += rng.expovariate(1.0 / config.think_time_mean)
        return events

    def _txn_key_set(self, rng: random.Random) -> tuple:
        """Distinct Zipf-skewed product ids for one transaction."""
        products = self.catalog.products
        count = min(self.config.txn_keys, len(products))
        if self._txn_weights is None:
            s = self.config.txn_zipf_s
            self._txn_weights = [
                1.0 / (rank**s) for rank in range(1, len(products) + 1)
            ]
        chosen: List[str] = []
        seen: set = set()
        while len(chosen) < count:
            product = rng.choices(products, weights=self._txn_weights, k=1)[0]
            if product.product_id not in seen:
                seen.add(product.product_id)
                chosen.append(product.product_id)
        return tuple(chosen)

    def _next_page(self, kind: str, target: str, rng: random.Random):
        config = self.config
        roll = rng.random()
        if roll < config.nav_category:
            return "category", self.catalog.sample_category(rng)
        if roll < config.nav_category + config.nav_product:
            return "product", self.catalog.sample_product(rng).product_id
        return "home", ""

    # -- GDPR requests (the GDPRbench-style mix) ---------------------------------

    def _gdpr_events(self, events: List, rng: random.Random) -> List:
        """Erase/access requests interleaved with the normal traffic.

        Following the GDPR benchmarking papers, data-subject requests
        arrive as part of the operational mix, not in a quiesced
        system. Erasures model account deletion: a sampled fraction of
        active logged-in users file one *after their last activity*,
        so erased users generate no post-erase traffic (once erased,
        their data must not reappear). Access requests are a Poisson
        stream over the same population at any time — reads are safe
        to interleave anywhere.
        """
        config = self.config
        if config.erase_fraction <= 0 and config.access_rate <= 0:
            return []
        last_seen: dict = {}
        for event in events:
            if isinstance(event, UserEvent):
                seen = last_seen.get(event.user_id, 0.0)
                last_seen[event.user_id] = max(seen, event.at)
        active = sorted(
            uid
            for uid in last_seen
            if self.users.by_id(uid).logged_in
        )
        gdpr: List = []
        if active and config.erase_fraction > 0:
            count = max(1, round(len(active) * config.erase_fraction))
            for uid in rng.sample(active, min(count, len(active))):
                # Strictly after the last activity, inside the trace.
                at = last_seen[uid] + rng.uniform(1.0, 30.0)
                if at < config.duration:
                    gdpr.append(EraseUser(at=at, user_id=uid))
        if active and config.access_rate > 0:
            now = 0.0
            while True:
                now += rng.expovariate(config.access_rate)
                if now >= config.duration:
                    break
                gdpr.append(
                    AccessUser(at=now, user_id=rng.choice(active))
                )
        return gdpr

    # -- background writes ------------------------------------------------------

    def _write_events(self, rng: random.Random) -> List[ProductUpdate]:
        events: List[ProductUpdate] = []
        config = self.config
        if config.write_rate <= 0:
            return events
        weights = [
            1.0 / (rank**config.write_zipf_s)
            for rank in range(1, len(self.catalog.products) + 1)
        ]
        now = 0.0
        while True:
            now += rng.expovariate(config.write_rate)
            if now >= config.duration:
                break
            product = rng.choices(
                self.catalog.products, weights=weights, k=1
            )[0]
            new_price = round(
                max(1.0, product.price * rng.uniform(0.9, 1.1)), 2
            )
            events.append(
                ProductUpdate(
                    at=now,
                    product_id=product.product_id,
                    changes=(("price", new_price),),
                )
            )
        return events

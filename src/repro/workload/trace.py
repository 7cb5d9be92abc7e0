"""Workload traces: the replayable event format.

A trace is a time-ordered list of events. Generating the trace once and
replaying it under every configuration guarantees that comparisons
(classic CDN vs. Speed Kit, Δ sweeps, segment-count sweeps) see
*identical* traffic — the same users visiting the same pages at the
same instants, with the same background writes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from repro.workload.world import WorldSpec


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base event: everything has a timestamp."""

    at: float


@dataclass(frozen=True, slots=True)
class UserEvent(TraceEvent):
    """Base of every event one user originates.

    ``user_id`` is the whole routing contract: the events a client
    stack replays, the users a trace has seen, and the shard that owns
    an event are all decided by it alone.
    """

    user_id: str = ""


@dataclass(frozen=True, slots=True)
class PageView(UserEvent):
    """A user navigates to a page."""

    page_kind: str = ""  # "home" | "category" | "product"
    target: str = ""  # category name or product id ("" for home)


@dataclass(frozen=True, slots=True)
class ProductUpdate(TraceEvent):
    """A background write: the shop updates a product."""

    product_id: str = ""
    changes: tuple = ()  # ((field, value), ...) — hashable for frozen

    @property
    def changes_dict(self) -> Dict[str, object]:
        return dict(self.changes)


@dataclass(frozen=True, slots=True)
class CartAdd(UserEvent):
    """A user-originated write: add a product to the cart."""

    product_id: str = ""


@dataclass(frozen=True, slots=True)
class TxnRead(UserEvent):
    """A multi-key read transaction over a set of product APIs."""

    product_ids: tuple = ()  # product ids read together, hashable


@dataclass(frozen=True, slots=True)
class EraseUser(UserEvent):
    """A GDPR Art. 17 request: erase this user's data everywhere."""


@dataclass(frozen=True, slots=True)
class AccessUser(UserEvent):
    """A GDPR Art. 15 request: report where this user's data lives."""


@dataclass
class WorkloadTrace:
    """A complete, time-ordered workload.

    ``world`` is the recipe for the catalog/user population the events
    reference (see :class:`repro.workload.world.WorldSpec`); traces
    carrying one are self-contained — replay rebuilds the recorded
    world instead of trusting replay-time flags. ``None`` means the
    world is unknown (a v1 trace file, or a hand-built trace), and
    replay must validate event references against whatever world it
    builds.
    """

    events: List[TraceEvent] = field(default_factory=list)
    duration: float = 0.0
    world: Optional["WorldSpec"] = None

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def sort(self) -> None:
        self.events.sort(key=lambda event: event.at)

    def page_views(self) -> List[PageView]:
        return [e for e in self.events if isinstance(e, PageView)]

    def product_updates(self) -> List[ProductUpdate]:
        return [e for e in self.events if isinstance(e, ProductUpdate)]

    def cart_adds(self) -> List[CartAdd]:
        return [e for e in self.events if isinstance(e, CartAdd)]

    def users_seen(self) -> List[str]:
        return sorted(self.events_per_user())

    def events_per_user(self) -> Dict[str, int]:
        """How many events each user originates."""
        return Counter(
            [event.user_id for event in self.events if isinstance(event, UserEvent)]
        )

    def validate(self) -> None:
        """Check trace invariants (ordering, bounds).

        Events may legitimately start before t=0 (rate-rescaled or
        imported traces), so ordering is checked between consecutive
        events only — there is no implicit t=0 floor.
        """
        if self.duration < 0:
            raise ValueError(f"negative duration {self.duration}")
        last: Optional[float] = None
        for event in self.events:
            if last is not None and event.at < last:
                raise ValueError(
                    f"trace not time-ordered at t={event.at} (prev {last})"
                )
            last = event.at
        if self.events and self.duration < self.events[-1].at:
            raise ValueError(
                f"duration {self.duration} < last event at {self.events[-1].at}"
            )

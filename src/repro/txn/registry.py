"""In-flight transaction state, visible to the erasure coordinator.

A serializable-read transaction buffers its fetched responses while
the optimistic validation round trip is outstanding. Without a
registry, an erase racing that window could complete — scrubbing every
cache tier — and then the transaction would surface (or re-admit) the
scrubbed user's bytes from its private buffer, resurrecting erased
data. The registry makes those buffers one more tier the
:class:`~repro.gdpr.erasure.ErasureCoordinator` walks: matching
buffered responses are dropped and their keys poisoned, so the
transaction aborts those reads instead of returning them.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional


class TxnContext:
    """One in-flight transaction's buffered read set."""

    __slots__ = ("txn_id", "user_id", "buffered", "poisoned", "start_epoch")

    def __init__(self, txn_id: int, user_id: Optional[str], start_epoch: int):
        self.txn_id = txn_id
        self.user_id = user_id
        # version_key -> buffered Response awaiting certification.
        self.buffered: Dict[str, object] = {}
        # version_keys an erase invalidated mid-flight.
        self.poisoned: set = set()
        # Erase epoch observed when the transaction began.
        self.start_epoch = start_epoch


class TxnRegistry:
    """Tracks in-flight transactions for erasure visibility."""

    def __init__(self) -> None:
        self._active: Dict[int, TxnContext] = {}
        self._ids = itertools.count(1)
        # Bumped on every scrub so transactions can detect an erase
        # that landed between their start and their admission point.
        self.erase_epoch = 0

    def begin(self, user_id: Optional[str] = None) -> TxnContext:
        context = TxnContext(next(self._ids), user_id, self.erase_epoch)
        self._active[context.txn_id] = context
        return context

    def buffer(self, context: TxnContext, version_key: str, response) -> None:
        context.buffered[version_key] = response

    def finish(self, context: TxnContext) -> None:
        self._active.pop(context.txn_id, None)
        context.buffered.clear()

    @property
    def in_flight(self) -> int:
        return len(self._active)

    # -- erasure hooks -----------------------------------------------------

    def scrub_matching(self, matcher) -> int:
        """Drop buffered responses holding the erased user's data.

        Each dropped key is poisoned in its transaction: the
        coordinator refuses to return or admit a poisoned read and
        aborts/refetches instead. Returns the number of buffered
        responses removed.
        """
        scrubbed = 0
        for context in self._active.values():
            doomed: List[str] = []
            for version_key, response in context.buffered.items():
                if matcher.matches_key(version_key) or matcher.matches_value(
                    response
                ):
                    doomed.append(version_key)
            for version_key in doomed:
                del context.buffered[version_key]
                context.poisoned.add(version_key)
                scrubbed += 1
        # Every erase advances the epoch: a transaction comparing its
        # start epoch at admission time sees any racing erase, not just
        # the ones that hit its own buffers.
        self.erase_epoch += 1
        return scrubbed

    def buffers_matching(self, matcher) -> List[str]:
        """Buffered keys still matching an erased user (residual check)."""
        residuals: List[str] = []
        for context in self._active.values():
            for version_key, response in context.buffered.items():
                if matcher.matches_key(version_key) or matcher.matches_value(
                    response
                ):
                    residuals.append(version_key)
        return residuals

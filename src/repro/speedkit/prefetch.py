"""Predictive prefetching: warm the service worker cache ahead of
navigation.

Production Speed Kit predicts likely next navigations and fetches them
into the service worker cache in the background, so the *next* page
load starts warm. This module implements the learning core as a simple
per-site Markov model over navigation transitions: the worker reports
each navigation, the predictor ranks likely successors, and the worker
prefetches the top candidates off the critical path.

Prefetched responses travel the normal accelerated path (scrubbed,
segment-rewritten, sketch-reported at the origin), so prefetching never
weakens coherence or compliance — it only moves fetches earlier.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Generator, List, Optional, Tuple

from repro.http.messages import Request
from repro.http.url import URL

#: Ranked successors the predictor offers per navigation.
MAX_PREDICTIONS = 3
#: Observed transition probability below which no prefetch is issued.
MIN_CONFIDENCE = 0.2


class NavigationPredictor:
    """First-order Markov model over page transitions.

    States are page identities (``kind:target``). Transition counts are
    shared per site deployment — in production the model is trained
    server-side on anonymized navigation statistics, which is exactly
    what counts of ``page → page`` transitions are.
    """

    def __init__(self) -> None:
        self._transitions: Dict[str, Counter] = {}
        self.observations = 0

    @staticmethod
    def state_of(page_kind: str, target: str) -> str:
        return f"{page_kind}:{target}"

    def observe(self, previous: Optional[str], current: str) -> None:
        """Record one navigation (``previous`` may be ``None``)."""
        self.observations += 1
        if previous is None:
            return
        self._transitions.setdefault(previous, Counter())[current] += 1

    def predict(self, current: str) -> List[Tuple[str, float]]:
        """Likely next states with their observed probabilities."""
        counts = self._transitions.get(current)
        if not counts:
            return []
        total = sum(counts.values())
        ranked = counts.most_common(MAX_PREDICTIONS)
        return [(state, count / total) for state, count in ranked]


def url_for_state(state: str) -> Optional[URL]:
    """Map a predictor state back to the page URL (None for home '')."""
    kind, _, target = state.partition(":")
    if kind == "home":
        return URL.parse("/")
    if kind == "category" and target:
        return URL.parse(f"/category/{target}")
    if kind == "product" and target:
        return URL.parse(f"/product/{target}")
    return None


class Prefetcher:
    """Drives background prefetches for one service worker."""

    def __init__(self, worker, predictor: NavigationPredictor) -> None:
        self.worker = worker
        self.predictor = predictor
        self._previous_state: Optional[str] = None
        self.prefetches_issued = 0

    def on_navigation(self, page_kind: str, target: str) -> None:
        """Report a navigation and launch background prefetches."""
        state = NavigationPredictor.state_of(page_kind, target)
        self.predictor.observe(self._previous_state, state)
        self._previous_state = state
        env = self.worker.transport.env
        for next_state, confidence in self.predictor.predict(state):
            if confidence < MIN_CONFIDENCE:
                continue
            url = url_for_state(next_state)
            if url is None:
                continue
            self.prefetches_issued += 1
            env.process(self._prefetch(url))

    def _prefetch(self, url: URL) -> Generator:
        """One background fetch through the worker's normal path."""
        yield from self.worker.fetch(Request.get(url))
        return None

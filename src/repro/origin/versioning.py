"""Resource version tracking for coherence verification.

Every cacheable *resource* (identified by its cache key, i.e. URL) has a
version that bumps whenever any of the documents it is rendered from
changes. The full bump history is retained so the Δ-atomicity checker
can ask "which version was current at time *t*?" — the ground truth
every staleness measurement compares against.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Set, Tuple


class ResourceVersions:
    """Versions and dependency links for all resources of a site."""

    def __init__(self) -> None:
        # resource key -> ordered (time, version) history
        self._history: Dict[str, List[Tuple[float, int]]] = {}
        # document key -> resource keys depending on it
        self._dependents: Dict[str, Set[str]] = {}

    # -- registration ------------------------------------------------------

    def register(self, resource_key: str, at: float = 0.0) -> None:
        """Ensure a resource exists (version 1 from time ``at``)."""
        if resource_key not in self._history:
            self._history[resource_key] = [(at, 1)]

    def depend(self, resource_key: str, doc_key: str) -> None:
        """Record that ``resource_key`` is rendered from ``doc_key``."""
        self.register(resource_key)
        self._dependents.setdefault(doc_key, set()).add(resource_key)

    def dependents_of(self, doc_key: str) -> Set[str]:
        """Resources whose content a document write may change."""
        return set(self._dependents.get(doc_key, ()))

    # -- version bookkeeping -------------------------------------------------

    def bump(self, resource_key: str, at: float) -> int:
        """Advance a resource's version at time ``at``; returns it."""
        self.register(resource_key, at=at)
        history = self._history[resource_key]
        last_time, last_version = history[-1]
        if at < last_time:
            raise ValueError(
                f"bump at {at} precedes last bump at {last_time} "
                f"for {resource_key!r}"
            )
        new_version = last_version + 1
        history.append((at, new_version))
        return new_version

    def current(self, resource_key: str) -> int:
        """The latest version of a resource."""
        try:
            return self._history[resource_key][-1][1]
        except KeyError:
            raise KeyError(f"unknown resource {resource_key!r}") from None

    def version_at(self, resource_key: str, at: float) -> int:
        """The version that was current at time ``at``.

        Before the first registration the resource did not exist;
        asking for such a time raises.
        """
        try:
            history = self._history[resource_key]
        except KeyError:
            raise KeyError(f"unknown resource {resource_key!r}") from None
        index = bisect.bisect_right(history, (at, float("inf"))) - 1
        if index < 0:
            raise ValueError(
                f"{resource_key!r} did not exist at time {at} "
                f"(first version at {history[0][0]})"
            )
        return history[index][1]

    def born_at(self, resource_key: str, version: int) -> float:
        """When ``version`` became current.

        Versions advance by exactly one starting at 1, so the history
        entry at index ``version - 1`` is the birth instant.
        """
        history = self._history[resource_key]
        index = version - 1
        if index < 0 or index >= len(history):
            raise ValueError(
                f"{resource_key!r} has no version {version} "
                f"(history length {len(history)})"
            )
        born, recorded = history[index]
        if recorded != version:
            raise ValueError(
                f"non-contiguous history for {resource_key!r}: "
                f"expected version {version} at index {index}, "
                f"found {recorded}"
            )
        return born

    def superseded_at(
        self, resource_key: str, version: int
    ) -> Optional[float]:
        """When ``version`` stopped being current (``None`` if it still
        is, or never existed).

        Histories are contiguous from version 1 (see :meth:`born_at`),
        so the successor ``version + 1`` sits at index ``version``.
        """
        history = self._history[resource_key]
        if 0 <= version < len(history):
            return history[version][0]
        return None

    def history(self, resource_key: str) -> List[Tuple[float, int]]:
        """The full (time, version) bump history of a resource."""
        return list(self._history[resource_key])

    def known_resources(self) -> List[str]:
        return sorted(self._history)

"""Streaming query matcher: which registered queries does a change affect?

This is the matching core of InvaliDB: subscriptions pair a query with
the resource it materializes; an update stream of change events is
matched against all subscriptions. A change affects a subscription if
its *before* or *after* image matches the query — entering, leaving,
and changing-within the result set all invalidate it.

Subscriptions are indexed by collection, so matching cost scales with
the subscriptions on the written collection rather than all of them.
The origin subscribes each query resource when it first resolves it.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.origin.query import Query
from repro.origin.store import ChangeEvent


class QueryMatcher:
    """Matches change events against registered query subscriptions."""

    def __init__(self) -> None:
        self._queries: Dict[str, Query] = {}
        self._by_collection: Dict[str, List[Tuple[str, Query]]] = {}
        self.matches_evaluated = 0

    def subscribe(self, resource_key: str, query: Query) -> None:
        """Register a query resource; a resource keeps its first query."""
        if resource_key not in self._queries:
            self._queries[resource_key] = query
            self._by_collection.setdefault(query.collection, []).append(
                (resource_key, query)
            )

    def subscription_count(self) -> int:
        return len(self._queries)

    def affected_resources(self, event: ChangeEvent) -> Set[str]:
        """Resource keys whose query results the change may alter."""
        affected: Set[str] = set()
        for resource_key, query in self._by_collection.get(event.collection, ()):
            self.matches_evaluated += 1
            before = event.before is not None and query.matches(
                event.collection, event.before.data
            )
            after = event.after is not None and query.matches(
                event.collection, event.after.data
            )
            if before or after:
                affected.add(resource_key)
        return affected

"""Queries over document fields: a collection, an optional equality
predicate, an ordering and a limit.

Queries are the unit of *query invalidation*: InvaliDB-style change
detection registers queries and matches every document update against
them. A predicate therefore needs exactly two capabilities: evaluating
a document, and a stable identity (so registered queries can be
deduplicated and referenced from cache keys). Every query a site
registers is an equality or has no predicate at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional


def _get_field(doc: Mapping[str, Any], path: str) -> Any:
    """Resolve a dotted field path; missing segments yield ``None``."""
    value: Any = doc
    for part in path.split("."):
        if not isinstance(value, Mapping) or part not in value:
            return None
        value = value[part]
    return value


@dataclass(frozen=True)
class Eq:
    """A document's ``field`` (a dotted path) equals ``value``."""

    field: str
    value: Any

    def matches(self, doc: Mapping[str, Any]) -> bool:
        return _get_field(doc, self.field) == self.value

    def key(self) -> str:
        return f"{self.field}=={self.value!r}"


@dataclass(frozen=True)
class Query:
    """A declarative query: collection + predicate + ordering + limit."""

    collection: str
    predicate: Optional[Eq] = None
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None

    def matches(self, collection: str, data: Mapping[str, Any]) -> bool:
        """Whether a document belongs to this query's *match set*.

        Ordering and limit do not affect membership — InvaliDB treats
        any matching change as potentially result-changing.
        """
        if collection != self.collection:
            return False
        if self.predicate is None:
            return True
        return self.predicate.matches(data)

    def key(self) -> str:
        parts = [self.collection]
        if self.predicate is not None:
            parts.append(self.predicate.key())
        if self.order_by is not None:
            direction = "desc" if self.descending else "asc"
            parts.append(f"order:{self.order_by}:{direction}")
        if self.limit is not None:
            parts.append(f"limit:{self.limit}")
        return "|".join(parts)

"""Case-insensitive HTTP header map.

A map is a value: built whole from a mapping, never edited. Any number
of messages, cache entries and replicas therefore carry the one object
(DESIGN, *Messages are values*); a different map is a new map
(:meth:`Headers.with_item`), and every editing method of a mutable
mapping raises :class:`FrozenHeadersError`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple


class FrozenHeadersError(TypeError):
    """An attempt to edit a header map."""


class Headers:
    """A mapping of header names to values, case-insensitive on names.

    The original casing of the *first* spelling seen for a name is
    preserved for display; lookups accept any casing. Values are always
    strings.
    """

    __slots__ = ("_items",)

    def __init__(self, initial: Optional[Mapping[str, str]] = None) -> None:
        # canonical (lower) name -> (display name, value)
        items: Dict[str, Tuple[str, str]] = {}
        self._items = items
        if initial:
            # First spelling wins for display, last value wins.
            get = items.get
            for name, value in initial.items():
                key = name.lower()
                prev = get(key)
                items[key] = (
                    name if prev is None else prev[0],
                    str(value),
                )

    def __getitem__(self, name: str) -> str:
        return self._items[name.lower()][1]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[str]:
        return (display for display, _ in self._items.values())

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        item = self._items.get(name.lower())
        return item[1] if item is not None else default

    def items(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items.values())

    def with_item(self, name: str, value: str) -> "Headers":
        """A new map: this one with ``name`` added or replaced."""
        key = name.lower()
        prev = self._items.get(key)
        clone = Headers()
        clone._items = {
            **self._items,
            key: (name if prev is None else prev[0], str(value)),
        }
        return clone

    def _refuse(self, *args: object, **kwargs: object) -> None:
        raise FrozenHeadersError(
            "a header map is never edited: build a new one with"
            " Headers(...) or with_item()"
        )

    __setitem__ = __delitem__ = pop = update = setdefault = _refuse

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Headers):
            return {k: v for k, (_, v) in self._items.items()} == {
                k: v for k, (_, v) in other._items.items()
            }
        if isinstance(other, Mapping):
            return self == Headers(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}: {value}" for name, value in self.items())
        return f"Headers({{{inner}}})"

"""Case-insensitive HTTP header map."""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterator, Mapping, Optional, Tuple


class Headers:
    """A mapping of header names to values, case-insensitive on names.

    The original casing of the *first* spelling seen for a name is
    preserved for display; lookups and deletions accept any casing.
    Values are always strings.
    """

    __slots__ = ("_items",)

    def __init__(self, initial: Optional[Mapping[str, str]] = None) -> None:
        # canonical (lower) name -> (display name, value)
        items: Dict[str, Tuple[str, str]] = {}
        self._items = items
        if initial:
            # Inlined __setitem__: header maps are built on every hop,
            # so the construction loop avoids the per-key method call
            # and the double lookup (first spelling wins for display,
            # last value wins — same semantics as repeated assignment).
            get = items.get
            for name, value in initial.items():
                key = name.lower()
                prev = get(key)
                items[key] = (
                    name if prev is None else prev[0],
                    str(value),
                )

    def __setitem__(self, name: str, value: str) -> None:
        key = name.lower()
        display = self._items[key][0] if key in self._items else name
        self._items[key] = (display, str(value))

    def __getitem__(self, name: str) -> str:
        return self._items[name.lower()][1]

    def __delitem__(self, name: str) -> None:
        del self._items[name.lower()]

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and name.lower() in self._items

    def __len__(self) -> int:
        return len(self._items)

    def isdisjoint(self, lowered_names: AbstractSet[str]) -> bool:
        """Whether none of ``lowered_names`` (canonical, lower-case
        spellings) is present — one test where a caller would probe
        name by name."""
        return self._items.keys().isdisjoint(lowered_names)

    def __iter__(self) -> Iterator[str]:
        return (display for display, _ in self._items.values())

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        item = self._items.get(name.lower())
        return item[1] if item is not None else default

    def pop(self, name: str, default: Optional[str] = None) -> Optional[str]:
        item = self._items.pop(name.lower(), None)
        return item[1] if item is not None else default

    def setdefault(self, name: str, value: str) -> str:
        key = name.lower()
        if key not in self._items:
            self._items[key] = (name, str(value))
        return self._items[key][1]

    def items(self) -> Iterator[Tuple[str, str]]:
        return iter(
            (display, value) for display, value in self._items.values()
        )

    def copy(self) -> "Headers":
        clone = Headers()
        clone._items = dict(self._items)
        return clone

    def update(self, other: Mapping[str, str]) -> None:
        for name, value in (
            other.items() if hasattr(other, "items") else other
        ):
            self[name] = value

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

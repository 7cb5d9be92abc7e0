"""Deciding which bytes belong to a data subject.

Erasure completeness hinges on the question "is this entry about user
X?" being answered the same way at every tier. The matcher answers it
structurally rather than per-tier: a *key* matches when the user id
appears as a whole token in the key string (``carts/u5``,
``/api/products/3?__user=u5``), and a *value* matches when the id
appears as a whole token in any string reachable from it — through
dicts, lists, and the simulation's response/document shapes. Token
boundaries matter: erasing ``u1`` must not take ``u12`` with it.

Reachability is decided once per stored object, not once per request:
:func:`identity_strings` flattens a value to the strings a match could
come from, :func:`identity_text` joins them with a separator no id may
contain and keeps the result on the stored object, and every later
question about that object is one substring test plus, rarely, one
pattern search over that text.
"""

from __future__ import annotations

import re
from dataclasses import fields, is_dataclass
from typing import Any, Dict, List, Tuple

__all__ = ["UserDataMatcher", "identity_strings", "identity_text"]

_TOKEN_CHARS = "A-Za-z0-9_"

#: Joins the strings of one identity text. Not a token character, so
#: it bounds a token exactly like the start or end of a string does,
#: and never part of a user id, so no match can span two strings.
_SEPARATOR = "\x00"

#: Containers nested deeper than this are not searched: a defensive
#: bound (the sim's payloads are shallow) that also ends the walk over
#: a cyclic value.
_MAX_DEPTH = 12

#: Where a stored shape keeps its identity text (``None`` until the
#: first GDPR visit). Declared by ``CacheEntry``, ``Document`` and
#: ``Rendition``.
_MEMO = "_identity_text"

_NO_SLOT = object()

_STRING, _SCALAR, _BYTES, _MAPPING, _SEQUENCE, _OBJECT = range(6)


class _Kinds(dict):
    """Exact type -> how :func:`identity_strings` treats its instances.

    Subclasses count as what they extend (an ``IntEnum`` status is a
    number, a ``NamedTuple`` a tuple); each type is classified once.
    """

    def __missing__(self, kind: type) -> int:
        if issubclass(kind, str):
            treated = _STRING
        elif issubclass(kind, (type(None), bool, int, float)):
            treated = _SCALAR
        elif issubclass(kind, bytes):
            treated = _BYTES
        elif issubclass(kind, dict):
            treated = _MAPPING
        elif issubclass(kind, (list, tuple, set, frozenset)):
            treated = _SEQUENCE
        else:
            treated = _OBJECT
        self[kind] = treated
        return treated


_KINDS = _Kinds()


class _Bookkeeping(dict):
    """Exact type -> its attributes that are never searched, each
    mapped to ``None`` (which the walk skips).

    One rule: a dataclass field that is not an ``__init__`` parameter
    (``init=False``) is kept *about* the fields that are, not data the
    object was given — how a stored shape declares its identity-text
    memo and ``Response`` the facts it reads off its header map.
    """

    def __missing__(self, kind: type) -> Dict[str, None]:
        declared = fields(kind) if is_dataclass(kind) else ()
        blanked = self[kind] = {f.name: None for f in declared if not f.init}
        return blanked


_BOOKKEEPING = _Bookkeeping()


class _SlotNames(dict):
    """Exact type -> the attributes its instances hold in slots.

    Every class of the MRO declares its own ``__slots__``, so a field
    declared on a slotted base class is read from that base, not from
    ``type(item).__slots__``. Bookkeeping is left out, and so are the
    ``__dict__`` / ``__weakref__`` slots (not attributes).
    """

    def __missing__(self, kind: type) -> Tuple[str, ...]:
        skipped = {**_BOOKKEEPING[kind], "__dict__": None, "__weakref__": None}
        names: Dict[str, None] = {}
        for klass in reversed(kind.__mro__):
            declared = klass.__dict__.get("__slots__", ())
            for name in (declared,) if isinstance(declared, str) else declared:
                if name not in skipped:
                    names[name] = None
        slots = self[kind] = tuple(names)
        return slots


_SLOT_NAMES = _SlotNames()


def identity_strings(value: Any) -> List[str]:
    """Every string a match on ``value`` could come from.

    The one definition of *reachable*: strings and decoded bytes; keys
    and values of dicts (a header name or a document field is data);
    items of lists, tuples and sets; attribute **values** of objects,
    from their ``__dict__`` and from the ``__slots__`` of every class
    they inherit (:class:`_SlotNames`) — never attribute names, which
    are the schema of the simulation's own classes, not user data, and
    never an object's bookkeeping (:class:`_Bookkeeping`).
    One pass, level by level, no recursion.
    """
    found: List[str] = []
    level = [value]
    for _ in range(_MAX_DEPTH + 1):
        deeper: List[Any] = []
        for item in level:
            kind = type(item)
            treated = _KINDS[kind]
            if treated == _STRING:
                found.append(item)
            elif treated == _SCALAR:
                continue
            elif treated == _SEQUENCE:
                deeper += item
            elif treated == _MAPPING:
                deeper += item
                deeper += item.values()
            elif treated == _BYTES:
                found.append(item.decode("utf-8", errors="replace"))
            else:
                attributes = getattr(item, "__dict__", None)
                if attributes is not None:
                    if not isinstance(attributes, dict):
                        continue  # a class: its ``__dict__`` is a proxy
                    bookkeeping = _BOOKKEEPING[kind]
                    if bookkeeping:
                        attributes = {**attributes, **bookkeeping}
                    deeper += attributes.values()
                # A plain loop: on 3.11 a comprehension is a frame per
                # object, and a slotted ``Response`` sits in every
                # cache entry.
                for name in _SLOT_NAMES[kind]:
                    deeper += (getattr(item, name, None),)
        if not deeper:
            break
        level = deeper
    return found


def identity_text(value: Any) -> str:
    """``value``'s identity strings as one searchable text.

    A stored shape that declares the memo slot is flattened on its
    first GDPR visit only. That is sound because stored values are
    replaced, never edited: a refresh ``put``s a copy, and a serve
    writes the policy layer's recency order, not the entry.
    """
    memo = getattr(value, _MEMO, _NO_SLOT)
    if memo is None or memo is _NO_SLOT:  # unfilled, or a plain value
        text = _SEPARATOR.join(identity_strings(value))
        if memo is None:
            # Documents and renditions are frozen dataclasses.
            object.__setattr__(value, _MEMO, text)
        return text
    return memo


class UserDataMatcher:
    """Token-boundary matcher for one user's data across all tiers."""

    def __init__(self, user_id: str) -> None:
        if not user_id:
            raise ValueError("user_id must be non-empty")
        if _SEPARATOR in user_id:
            raise ValueError("user_id must not contain a NUL character")
        self.user_id = user_id
        self._pattern = re.compile(
            f"(?<![{_TOKEN_CHARS}])" + re.escape(user_id) + f"(?![{_TOKEN_CHARS}])"
        )

    def matches_text(self, text: str) -> bool:
        # The substring test rules out almost every text at C speed;
        # only a text that contains the id pays for the boundary check.
        return self.user_id in text and self._pattern.search(text) is not None

    def matches_key(self, key: str) -> bool:
        """True when a cache/store key names this user."""
        return self.matches_text(key)

    def matches_value(self, value: Any) -> bool:
        """True when the stored value carries this user's bytes."""
        return self.matches_text(identity_text(value))

    def matches_entry(self, key: str, value: Any) -> bool:
        """True when either the key or the stored value names the user."""
        return self.matches_text(key) or self.matches_text(identity_text(value))

    def __call__(self, key: str) -> bool:
        # Plain key predicate, so a matcher can be handed anywhere a
        # ``Callable[[str], bool]`` is expected (purge fan-outs,
        # replicator supersession, sketch forgetting).
        return self.matches_key(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UserDataMatcher({self.user_id!r})"

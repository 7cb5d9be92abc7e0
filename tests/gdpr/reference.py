"""The oracle for identity matching, and the audit built on it.

:class:`ReferenceMatcher` is the recursive, reflective walk that
``UserDataMatcher`` performed before values were flattened to an
identity text — copied verbatim, minus its one bug (it descended into
``__dict__`` *as a dict* and so matched attribute names). It keeps no
memo and reads none, so it answers from the bytes as they are now:
the differential test holds the flattened matcher to it, and the
completeness audit re-walks every tier with it.
"""

import re

from repro.gdpr.matching import _MEMO, _SEPARATOR, identity_strings

_TOKEN_CHARS = "A-Za-z0-9_"


class ReferenceMatcher:
    def __init__(self, user_id):
        self.user_id = user_id
        self._pattern = re.compile(
            f"(?<![{_TOKEN_CHARS}])" + re.escape(user_id) + f"(?![{_TOKEN_CHARS}])"
        )

    def matches_text(self, text):
        return bool(self._pattern.search(text))

    def matches_key(self, key):
        return self.matches_text(key)

    def matches_value(self, value):
        return self._walk(value, depth=0)

    def _walk(self, value, depth):
        if depth > 12:  # defensive bound; sim payloads are shallow
            return False
        if value is None or isinstance(value, (bool, int, float)):
            return False
        if isinstance(value, str):
            return self.matches_text(value)
        if isinstance(value, bytes):
            return self.matches_text(value.decode("utf-8", errors="replace"))
        if isinstance(value, dict):
            return any(
                self._walk(k, depth + 1) or self._walk(v, depth + 1)
                for k, v in value.items()
            )
        if isinstance(value, (list, tuple, set, frozenset)):
            return any(self._walk(item, depth + 1) for item in value)
        names = []
        inner = getattr(value, "__dict__", None)
        if inner is not None:
            # The fix: attribute values only, and never the memo.
            if not isinstance(inner, dict):
                return False
            names += inner
        # Slots are declared class by class: a slotted base's fields are
        # in the base's ``__slots__``, not the subclass's.
        for klass in type(value).__mro__:
            slots = klass.__dict__.get("__slots__", ())
            names += [slots] if isinstance(slots, str) else slots
        return any(
            self._walk(getattr(value, name, None), depth + 1)
            for name in names
            if name not in (_MEMO, "__dict__", "__weakref__")
        )

    def matches_entry(self, key, value):
        return self.matches_key(key) or self.matches_value(value)


def reachable_values(runner):
    """Every ``(tier, key, value)`` the GDPR walk can be shown.

    Goes through the same deep views the coordinator uses — a
    predicate that records what it is asked about and matches nothing —
    so wrapped engines, write-behind queues and masked inner copies are
    all included, whatever the storage composition. ``runner`` is a
    :class:`~tests.harness.keeping.KeepingRunner`: the device caches
    walked are every one the replay built, retired ones included.
    """
    seen = []

    def recorder(tier):
        def record(key, value):
            seen.append((tier, key, value))
            return False

        return record

    gdpr = runner.gdpr
    gdpr.store.backend.residuals_matching(recorder("origin"))
    if gdpr.origin is not None:
        gdpr.origin.renditions_matching(recorder("origin-renditions"))
    tiers = {**gdpr._cache_tiers(), **runner.client_cache_stores()}
    for label, tier in tiers.items():
        tier.backend.residuals_matching(recorder(label))
    if gdpr.txn_registry is not None:
        for context in gdpr.txn_registry._active.values():
            for key, response in context.buffered.items():
                seen.append(("txn-buffers", key, response))
    return seen


def stale_identity_texts(runner):
    """``tier:key`` of every stored value whose kept identity text is
    no longer what flattening the value yields — i.e. every stored
    value that was edited in place after a GDPR walk had seen it."""
    return [
        f"{tier}:{key}"
        for tier, key, value in reachable_values(runner)
        if (kept := getattr(value, _MEMO, None)) is not None
        and kept != _SEPARATOR.join(identity_strings(value))
    ]


def reference_residuals(runner, user_id):
    """The deep residual walk, answered by the memo-free oracle."""
    matcher = ReferenceMatcher(user_id)
    return [
        f"{tier}:{key}"
        for tier, key, value in reachable_values(runner)
        if matcher.matches_entry(key, value)
    ]

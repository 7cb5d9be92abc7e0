"""The GDPR layer: keep personal data inside the user's device.

Three cooperating pieces:

* :class:`PiiVault` — the only place user identity and profile
  attributes live. It sits inside the simulated device; nothing in the
  caching infrastructure ever reads it directly.
* :class:`ConsentManager` — per-purpose consent. Without consent for
  ``Purpose.ACCELERATION`` the worker degrades to pure pass-through
  (requests go to the origin exactly as without Speed Kit).
* :class:`RequestScrubber` — strips identifying headers and query
  parameters from every request routed through shared caching
  infrastructure, and reports what it removed (the worker counts the
  requests it scrubbed in the run's registry, ``speedkit.scrubbed``).
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.http.headers import Headers
from repro.http.messages import Request
from repro.http.url import URL


class Purpose(str, enum.Enum):
    """Processing purposes a user can consent to (GDPR Art. 6)."""

    ACCELERATION = "acceleration"  # route through caching infrastructure
    SEGMENTATION = "segmentation"  # derive a coarse segment client-side


class PiiVault:
    """Client-side store of everything that identifies the user.

    Holds the session/user id and profile attributes (locale, pricing
    tier, consent record). Access is explicit: callers must ask for
    either the identity (only to be attached to *direct first-party*
    requests) or for segmentation attributes (only ever leaving the
    device as a coarse segment id).
    """

    def __init__(
        self,
        user_id: Optional[str] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._user_id = user_id
        self._attributes: Dict[str, Any] = dict(attributes or {})

    @property
    def has_identity(self) -> bool:
        return self._user_id is not None

    def identity_for_first_party(self) -> Optional[str]:
        """The user id — only for direct origin connections."""
        return self._user_id

    def clear_identity(self) -> None:
        """Logout / erasure (GDPR Art. 17 is a local delete)."""
        self._user_id = None
        self._attributes.clear()

    def attributes_for_segmentation(self) -> Dict[str, Any]:
        """A copy of the profile attributes for client-side segmentation."""
        return dict(self._attributes)


class ConsentManager:
    """Tracks which purposes the user has consented to."""

    def __init__(self, granted: Optional[Set[Purpose]] = None) -> None:
        self._granted: Set[Purpose] = set(granted or ())
        self.changes: List[Tuple[Purpose, bool]] = []

    def grant(self, purpose: Purpose) -> None:
        self._granted.add(purpose)
        self.changes.append((purpose, True))

    def allows(self, purpose: Purpose) -> bool:
        return purpose in self._granted

    @classmethod
    def all_granted(cls) -> "ConsentManager":
        return cls(granted=set(Purpose))

    @classmethod
    def none_granted(cls) -> "ConsentManager":
        return cls()


@dataclass(frozen=True)
class ScrubReport:
    """What the scrubber removed from one request: a value, so every
    request carrying the same header map shares one."""

    removed_headers: Tuple[str, ...] = ()
    removed_params: Tuple[str, ...] = ()
    #: Read once per request, so decided once, when the report is made.
    anything_removed: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        removed = bool(self.removed_headers or self.removed_params)
        object.__setattr__(self, "anything_removed", removed)


_NOTHING_REMOVED = ScrubReport()


class RequestScrubber:
    """Strips identifying data from requests entering shared caches.

    Removal is two-layered: a denylist of header/parameter names known
    to carry identity, plus value-pattern detectors (emails, long
    opaque tokens) that catch identity smuggled through other fields.

    A header map is a value, and the cookie jar hands one map to all of
    a user's requests, so the scrubber keeps the last map it cleaned
    and the cleaned twin (compared with ``is``): a map is scrubbed once,
    not once per request. URL parameters differ per request and are
    scrubbed every time.
    """

    DEFAULT_HEADER_DENYLIST = (
        "cookie",
        "authorization",
        "x-user-id",
        "x-session-id",
        "x-api-key",
    )
    DEFAULT_PARAM_DENYLIST = (
        "session",
        "sessionid",
        "sid",
        "token",
        "user",
        "userid",
        "email",
    )

    _EMAIL = re.compile(r"^[^@\s]+@[^@\s]+\.[^@\s]+$")
    _OPAQUE_TOKEN = re.compile(r"^[A-Za-z0-9+/_-]{32,}={0,2}$")

    def __init__(
        self,
        header_denylist: Optional[Tuple[str, ...]] = None,
        param_denylist: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.header_denylist = frozenset(
            name.lower()
            for name in (header_denylist or self.DEFAULT_HEADER_DENYLIST)
        )
        self.param_denylist = frozenset(
            name.lower()
            for name in (param_denylist or self.DEFAULT_PARAM_DENYLIST)
        )
        # The last header map scrubbed, its cleaned twin, and the
        # report of what the twin lacks.
        self._last_map: Optional[Headers] = None
        self._last_kept = Headers()
        self._last_report = _NOTHING_REMOVED

    def looks_identifying(self, value: str) -> bool:
        """Value-based detection of smuggled identity."""
        return bool(
            self._EMAIL.match(value) or self._OPAQUE_TOKEN.match(value)
        )

    def _scrub_headers(self, headers: Headers) -> None:
        kept = {}
        removed = []
        for name, value in headers.items():
            if name.lower() in self.header_denylist or (
                self.looks_identifying(value)
            ):
                removed.append(name)
            else:
                kept[name] = value
        self._last_map = headers
        self._last_kept = Headers(kept) if removed else headers
        self._last_report = (
            ScrubReport(removed_headers=tuple(removed))
            if removed
            else _NOTHING_REMOVED
        )

    def clean(self, request: Request) -> Tuple[URL, Headers, ScrubReport]:
        """What :meth:`scrub` builds its request from — the cleaned URL
        and header map — plus what was removed, for a caller that builds
        the request itself (or, answering from its own cache, none)."""
        if request.headers is not self._last_map:
            self._scrub_headers(request.headers)
        report = self._last_report
        url = request.url
        if url.query:
            removed = []
            for key, value in request.url.params.items():
                if key.lower() in self.param_denylist or (
                    self.looks_identifying(value)
                ):
                    url = url.without_param(key)
                    removed.append(key)
            if removed:
                report = ScrubReport(report.removed_headers, tuple(removed))
        return url, self._last_kept, report

    def scrub(self, request: Request) -> Tuple[Request, ScrubReport]:
        """A cleaned request — a new one, whose ``url`` and ``trace``
        the caller may rebind — plus what was removed."""
        url, headers, report = self.clean(request)
        cleaned = Request(
            method=request.method,
            url=url,
            headers=headers,
            body=request.body,
            client_id=request.client_id,
            trace=request.trace,
        )
        return cleaned, report

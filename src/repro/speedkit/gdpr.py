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
  infrastructure, and keeps an audit log proving what was removed.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.http.headers import Headers
from repro.http.messages import Request


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

    def set_identity(self, user_id: str) -> None:
        self._user_id = user_id

    def clear_identity(self) -> None:
        """Logout / erasure (GDPR Art. 17 is a local delete)."""
        self._user_id = None
        self._attributes.clear()

    def attribute(self, name: str, default: Any = None) -> Any:
        return self._attributes.get(name, default)

    def set_attribute(self, name: str, value: Any) -> None:
        self._attributes[name] = value

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

    def revoke(self, purpose: Purpose) -> None:
        self._granted.discard(purpose)
        self.changes.append((purpose, False))

    def allows(self, purpose: Purpose) -> bool:
        return purpose in self._granted

    @classmethod
    def all_granted(cls) -> "ConsentManager":
        return cls(granted=set(Purpose))

    @classmethod
    def none_granted(cls) -> "ConsentManager":
        return cls()


@dataclass
class ScrubReport:
    """What the scrubber removed from one request (audit record)."""

    removed_headers: List[str] = field(default_factory=list)
    removed_params: List[str] = field(default_factory=list)

    @property
    def anything_removed(self) -> bool:
        return bool(self.removed_headers or self.removed_params)


class RequestScrubber:
    """Strips identifying data from requests entering shared caches.

    Removal is two-layered: a denylist of header/parameter names known
    to carry identity, plus value-pattern detectors (emails, long
    opaque tokens) that catch identity smuggled through other fields.
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
        #: The reports that removed something, in request order.
        self.audit_log: List[ScrubReport] = []
        #: How many scrubbed requests carried nothing to remove (an
        #: audit needs their number, not one empty report each).
        self.clean_requests = 0

    def looks_identifying(self, value: str) -> bool:
        """Value-based detection of smuggled identity."""
        return bool(
            self._EMAIL.match(value) or self._OPAQUE_TOKEN.match(value)
        )

    def scrub(self, request: Request) -> Tuple[Request, ScrubReport]:
        """Return a cleaned copy of ``request`` plus the audit record."""
        report = ScrubReport()
        if not request.headers and not request.url.query:
            self.clean_requests += 1
            return request.copy(), report
        kept = {}
        for name, value in request.headers.items():
            if name.lower() in self.header_denylist or (
                self.looks_identifying(value)
            ):
                report.removed_headers.append(name)
            else:
                kept[name] = value
        url = request.url
        for key, value in url.params.items():
            if key.lower() in self.param_denylist or (
                self.looks_identifying(value)
            ):
                url = url.without_param(key)
                report.removed_params.append(key)
        if report.anything_removed:
            self.audit_log.append(report)
        else:
            self.clean_requests += 1
        cleaned = Request(
            method=request.method,
            url=url,
            headers=Headers(kept),
            body=request.body,
            client_id=request.client_id,
            trace=request.trace,
        )
        return cleaned, report

"""The origin: the website being accelerated.

Models the backend the paper's Orestes middleware fronts: a versioned
document store with equality queries, a resource/version
registry that maps stored documents to the URLs whose content they
determine, an InvaliDB-style query matcher, a declarative site
description, and an HTTP server façade that renders responses with
ETags and Cache-Control headers.

The server resolves every store change to its affected resources once
and hands that set to its change observers — that is where the
invalidation pipeline (:mod:`repro.invalidation`) attaches.
"""

from repro.origin.matcher import QueryMatcher
from repro.origin.query import Eq, Query
from repro.origin.server import OriginServer, TtlPolicy, StaticTtlPolicy
from repro.origin.site import (
    PersonalizationKind,
    ResourceKind,
    ResourceSpec,
    Site,
)
from repro.origin.store import (
    ChangeEvent,
    Document,
    DocumentStore,
    VersionConflict,
)
from repro.origin.versioning import ResourceVersions

__all__ = [
    "ChangeEvent",
    "Document",
    "DocumentStore",
    "Eq",
    "OriginServer",
    "PersonalizationKind",
    "Query",
    "QueryMatcher",
    "ResourceKind",
    "ResourceSpec",
    "ResourceVersions",
    "Site",
    "StaticTtlPolicy",
    "TtlPolicy",
    "VersionConflict",
]

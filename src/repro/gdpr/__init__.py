"""GDPR rights as a first-class subsystem: erasure and access.

The paper's headline is GDPR compliance; the scrubbing proxy
(:mod:`repro.speedkit.gdpr`) keeps identity *out* of shared caches, and
this package adds the two data-subject rights that act on data already
*in* the system:

* **Right to erasure (Art. 17).** :class:`ErasureCoordinator.erase`
  walks every tier user bytes can live in — the origin document store,
  every CDN PoP, every browser and service-worker cache, write-behind
  flush queues, in-flight PoP replicas, and the server Cache Sketch —
  and provably removes them, whatever storage engine (sharded, batched,
  write-behind, flaky) each tier runs on. Exported observability spans
  are scrubbed by key-hash on export.
* **Right to access (Art. 15).** :class:`ErasureCoordinator.access`
  assembles a subject-access report from the same walk, without
  mutating anything.

Erasure *latency* and erasure *completeness* are the metrics that
matter (Shastri et al., Shah et al.); both are threaded through
:mod:`repro.obs` — latency as the ``gdpr.erase.latency`` histogram,
completeness as the ``gdpr.erase.residuals`` counter a single
surviving byte increments.
"""

from repro.gdpr.erasure import (
    AccessReport,
    ErasureCoordinator,
    ErasureReport,
)
from repro.gdpr.matching import UserDataMatcher
from repro.gdpr.spanscrub import scrub_span_records, user_hash

__all__ = [
    "AccessReport",
    "ErasureCoordinator",
    "ErasureReport",
    "UserDataMatcher",
    "scrub_span_records",
    "user_hash",
]

"""Cache prewarming: fill the edges before the first visitor.

Production Speed Kit deployments prewarm the caching infrastructure
after go-live or a purge-everything event: the most popular URLs are
rendered once and pushed into every PoP, so even the first visitors
hit warm caches. The warmer renders through the normal origin path, so
the Cache Sketch learns about the handed-out copies exactly as it would
for organic traffic — prewarmed entries are fully coherent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.http.messages import Request, Status
from repro.http.url import URL
from repro.speedkit.backend import SpeedKitBackend


@dataclass
class PrewarmReport:
    """What one prewarming pass accomplished."""

    warmed: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)
    bytes_pushed: int = 0

    @property
    def warmed_count(self) -> int:
        return len(self.warmed)


def prewarm(
    backend: SpeedKitBackend,
    urls: Sequence[URL],
    at: float,
    segments: Optional[Sequence[str]] = None,
) -> PrewarmReport:
    """Render ``urls`` at the origin and admit them into every PoP.

    ``segments`` optionally prewarms segment variants too (pass the
    segment ids the site actually serves). Uncacheable or failing
    responses are recorded as failures and skipped.
    """
    from repro.origin.server import SEGMENT_PARAM

    report = PrewarmReport()
    variants: List[URL] = []
    for url in urls:
        variants.append(url)
        for segment in segments or ():
            variants.append(url.with_param(SEGMENT_PARAM, segment))

    for url in variants:
        request = Request.get(url)
        response = backend.server.handle(request, at)
        if response.status != Status.OK:
            report.failed.append(str(url))
            continue
        stored = False
        for pop in backend.cdn.pops.values():
            admitted = pop.admit(request, response, at)
            if url.cache_key() in pop.store:
                stored = True
        if stored:
            report.warmed.append(str(url))
            report.bytes_pushed += response.content_length or 0
        else:
            report.failed.append(str(url))
    return report

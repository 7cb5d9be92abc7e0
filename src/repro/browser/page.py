"""Page load model: composing resource fetches into page load times.

A page is an HTML document plus waves of subresources. Wave 0 (the
HTML) blocks everything; resources within a wave load in parallel
(subject to a connection limit); wave *n+1* starts when wave *n*
finishes — modelling discovery (CSS referencing fonts, scripts
requesting data). The page load time is the span from navigation start
until the last resource of the last wave has arrived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.browser.client import Fetcher
from repro.http.headers import Headers
from repro.http.messages import Request, Response
from repro.http.url import URL
from repro.obs.analysis import response_attrs
from repro.obs.tracer import NOOP_TRACER
from repro.sim.environment import Environment

#: The browser's per-host connection limit: fetches in flight at once
#: within one wave.
MAX_PARALLEL = 6


@dataclass(frozen=True)
class PageResource:
    """One subresource of a page."""

    url: URL
    wave: int = 1

    def __post_init__(self) -> None:
        if self.wave < 1:
            raise ValueError(
                f"subresource waves start at 1 (0 is the HTML): {self.wave}"
            )


@dataclass
class PageSpec:
    """A whole page: HTML plus subresources grouped in waves."""

    name: str
    html: URL
    resources: List[PageResource] = field(default_factory=list)

    def waves(self) -> List[List[PageResource]]:
        """Subresources grouped by wave, in wave order."""
        if not self.resources:
            return []
        by_wave: Dict[int, List[PageResource]] = {}
        for resource in self.resources:
            by_wave.setdefault(resource.wave, []).append(resource)
        return [by_wave[wave] for wave in sorted(by_wave)]


@dataclass
class PageLoadResult:
    """Outcome of one page load."""

    page: str
    started_at: float
    finished_at: float
    html_at: float
    responses: List[Response]

    @property
    def plt(self) -> float:
        """Page load time in simulated seconds."""
        return self.finished_at - self.started_at


class PageLoadEngine:
    """Drives page loads through a fetcher.

    ``MAX_PARALLEL`` models the browser's per-host connection limit;
    within a wave at most that many fetches are in flight at once.

    With ``batch_waves`` each slot of a wave travels as one multi-asset
    lookup through the fetcher's ``fetch_many`` (HTTP/2-style
    multiplexing: one edge round trip, one batched cache read) instead
    of ``MAX_PARALLEL`` independent connections. Every
    :class:`~repro.browser.client.Fetcher` has a ``fetch_many``; one
    without a batched path of its own answers with the protocol's
    default, parallel single fetches.
    """

    def __init__(
        self,
        env: Environment,
        fetcher: Fetcher,
        batch_waves: bool = False,
        tracer=None,
    ) -> None:
        self.env = env
        self.fetcher = fetcher
        self.batch_waves = batch_waves
        self.tracer = tracer if tracer is not None else NOOP_TRACER

    def load(
        self, page: PageSpec, headers: Optional[dict] = None, trace=None
    ) -> Generator:
        """Load a page (generator sub-process returning PageLoadResult).

        ``trace`` is an optional parent span context; when set, every
        resource fetch records a ``request`` span under it carrying its
        wave/slot position and the response's serving metadata.
        """
        started_at = self.env.now
        responses: List[Response] = []

        # One map for the whole page load, carried by every
        # resource's request (a header map is never edited).
        shared = Headers(headers)
        html_request = Request.get(page.html, headers=shared)
        span = self.tracer.start(
            "request",
            self.env.now,
            parent=trace,
            tier="client",
            url=str(page.html),
            wave=0,
            slot=0,
        )
        html_request.trace = span.context
        html_response = yield from self.fetcher.fetch(html_request)
        if self.tracer.enabled:
            span.set(**response_attrs(html_response))
        self.tracer.finish(span, self.env.now)
        responses.append(html_response)
        html_at = self.env.now

        for wave_index, wave in enumerate(page.waves(), start=1):
            wave_responses = yield from self._load_wave(
                wave, shared, trace, wave_index
            )
            responses.extend(wave_responses)

        return PageLoadResult(
            page=page.name,
            started_at=started_at,
            finished_at=self.env.now,
            html_at=html_at,
            responses=responses,
        )

    def _traced_fetch(self, request: Request, span) -> Generator:
        """One single fetch wrapped so its span ends when *it* ends,
        not when the whole slot's barrier completes."""
        response = yield from self.fetcher.fetch(request)
        if self.tracer.enabled:
            span.set(**response_attrs(response))
        self.tracer.finish(span, self.env.now)
        return response

    def _load_wave(
        self,
        wave: List[PageResource],
        headers: Headers,
        trace=None,
        wave_index: int = 1,
    ) -> Generator:
        """Fetch one wave with bounded parallelism."""
        pending = list(wave)
        responses: List[Tuple[int, Response]] = []
        # Launch in slots of MAX_PARALLEL: a simple but faithful model
        # of the browser's connection pool (slots refill as a batch).
        index = 0
        while index < len(pending):
            batch = pending[index : index + MAX_PARALLEL]
            slot = index // MAX_PARALLEL
            requests = [
                Request.get(resource.url, headers=headers)
                for resource in batch
            ]
            if self.batch_waves:
                # One multiplexed lookup for the whole slot.
                span = self.tracer.start(
                    "request-batch",
                    self.env.now,
                    parent=trace,
                    tier="client",
                    wave=wave_index,
                    slot=slot,
                    n=len(requests),
                )
                for request in requests:
                    request.trace = span.context
                batch_responses = yield from self.fetcher.fetch_many(
                    requests
                )
                if self.tracer.enabled:
                    span.set(
                        responses=[
                            response_attrs(response)
                            for response in batch_responses
                        ]
                    )
                self.tracer.finish(span, self.env.now)
                for offset, response in enumerate(batch_responses):
                    responses.append((index + offset, response))
            else:
                processes = []
                for request in requests:
                    span = self.tracer.start(
                        "request",
                        self.env.now,
                        parent=trace,
                        tier="client",
                        url=str(request.url),
                        wave=wave_index,
                        slot=slot,
                    )
                    request.trace = span.context
                    processes.append(
                        self.env.process(self._traced_fetch(request, span))
                    )
                done = yield self.env.all_of(processes)
                for offset, process in enumerate(processes):
                    responses.append((index + offset, done[process]))
            index += len(batch)
        responses.sort(key=lambda pair: pair[0])
        return [response for _, response in responses]

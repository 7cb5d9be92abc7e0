"""The no-caching-at-all baseline fetcher."""

from __future__ import annotations

from typing import Generator

from repro.browser.client import Fetcher
from repro.browser.transport import Transport
from repro.http.messages import Request


class NoCacheClient(Fetcher):
    """The no-caching-at-all baseline: every request hits the origin."""

    def __init__(self, node: str, transport: Transport) -> None:
        self.node = node
        self.transport = transport

    def fetch(self, request: Request) -> Generator:
        return self.transport.fetch_direct(self.node, request)

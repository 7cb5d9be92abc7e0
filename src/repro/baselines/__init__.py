"""Baseline client stacks the paper compares against.

Three baselines bracket Speed Kit:

* :class:`NoCacheClient` — every request travels to the origin; the
  lower bound nothing should fall below.
* classic browser — :class:`~repro.browser.client.BrowserClient` in
  ``DIRECT`` mode: private caching only.
* classic CDN — :class:`BrowserClient` in ``CDN`` mode: the
  conventional deployment. Personalized pages carry the session cookie
  to the origin and come back ``private`` — the CDN can only
  accelerate static assets, which is the paper's core motivation.

A logged-in user's session cookie is the client's
:attr:`~repro.browser.client.Fetcher.request_headers`: the runner gives
every client (baseline or Speed Kit worker) one map holding it, and
every request built for the client carries that map, like a browser
attaching its cookie to every same-site request. The Speed Kit worker
scrubs it before anything leaves the device.
"""

from repro.baselines.clients import NoCacheClient

__all__ = ["NoCacheClient"]

"""The registry under its observability name.

There is one metric registry, :class:`repro.sim.metrics.MetricRegistry`
(counters, gauges, exact histograms, time series, streaming quantile
sketches); ``MetricsRegistry`` is the name ``repro.obs`` exports it
under.

A number is kept once, in the collector written by the subsystem where
the thing happens, and ``RunResult.over`` restates it — a counter, a
histogram's peak (the extrema), histograms' observation counts
(``page_views``, ``reads_checked``), the ``tier.plt.*`` sketches' sums
— so merging shards is merging registries and nothing else (DESIGN.md,
*Observability*): per-layer and per-kind servings are the
``serve.layer.*`` / ``serve.kind.*.*`` counters, with degraded
servings (stale-if-error and offline responses) under
``serve.degraded.*`` so fresh cache hits are distinguishable from
responses the degradation ladder kept alive. Names carry a tier
(``sw.hit``, ``speedkit.scrubbed``), a PoP (``edge.<pop>.hit``) or a
kind — never a user id; per-request detail lives in the spans.
"""

from repro.sim.metrics import MetricRegistry as MetricsRegistry

__all__ = ["MetricsRegistry"]

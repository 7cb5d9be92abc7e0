"""The registry under its observability name.

There is one metric registry, :class:`repro.sim.metrics.MetricRegistry`
(counters, gauges, exact histograms, time series, streaming quantile
sketches); ``MetricsRegistry`` is the name ``repro.obs`` exports it
under.

A count is kept once, in the counter written by the subsystem where
the thing happens, and ``RunResult`` restates it (DESIGN.md,
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

"""The registry under its observability name.

There is one metric registry, :class:`repro.sim.metrics.MetricRegistry`
(counters, gauges, exact histograms, time series, streaming quantile
sketches); ``MetricsRegistry`` is the name ``repro.obs`` exports it
under.

The harness's structured serving tallies live in it: per-layer and
per-kind serving counts flow through ``serve.layer.*`` /
``serve.kind.*`` counters, with degraded servings (stale-if-error and
offline responses) tracked separately under ``serve.degraded.*`` so
fresh cache hits are distinguishable from responses the degradation
ladder kept alive.
"""

from repro.sim.metrics import MetricRegistry as MetricsRegistry

__all__ = ["MetricsRegistry"]

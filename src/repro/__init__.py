"""repro — a from-scratch reproduction of Speed Kit (ICDE 2020).

Speed Kit is a polyglot, GDPR-compliant approach for caching
personalized web content: a service-worker proxy in the browser reroutes
requests through caching infrastructure, a Bloom-filter *Cache Sketch*
bounds staleness to Δ, user segments make personalized content cacheable
without identity, and all sensitive information stays on the device.

Package tour (details in each subpackage's docstring):

* substrates — :mod:`repro.sim` (discrete-event kernel),
  :mod:`repro.http`, :mod:`repro.simnet`, :mod:`repro.origin`,
  :mod:`repro.cdn`, :mod:`repro.browser`;
* protocol — :mod:`repro.sketch`, :mod:`repro.ttl`,
  :mod:`repro.invalidation`, :mod:`repro.coherence`;
* the system — :mod:`repro.speedkit`;
* evaluation — :mod:`repro.workload`, :mod:`repro.baselines` (the
  no-cache client), :mod:`repro.harness` (which hands a logged-in
  user's client its session cookie), and the CLI (``python -m repro``).

Quickstart::

    import random
    from repro.harness import Scenario, ScenarioSpec, SimulationRunner
    from repro.workload import (
        CatalogConfig, UserPopulationConfig, WorkloadConfig,
        WorkloadGenerator, generate_catalog, generate_users,
    )

    catalog = generate_catalog(CatalogConfig(), random.Random(0))
    users = generate_users(UserPopulationConfig(), random.Random(1))
    trace = WorkloadGenerator(catalog, users, WorkloadConfig()).generate(
        random.Random(2)
    )
    result = SimulationRunner(
        ScenarioSpec(scenario=Scenario.SPEED_KIT), catalog, users, trace
    ).run()
    print(result.summary_row())
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

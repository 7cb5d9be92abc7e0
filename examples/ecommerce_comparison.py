#!/usr/bin/env python
"""Full e-commerce comparison: replay one hour of shop traffic under
every delivery stack and print the paper-style comparison tables.

This is the workload behind experiments E1/E2/E8: a Zipf-popular
catalog, a mixed user population (connection types, login states,
segments), session-based navigation, background price updates, and
cart writes — identical traffic replayed against each scenario.

Run:  python examples/ecommerce_comparison.py [--quick]
"""

import argparse
import random

from repro.harness import (
    Scenario,
    ScenarioSpec,
    SimulationRunner,
    compare_scenarios,
    format_table,
)
from repro.workload import (
    CatalogConfig,
    UserPopulationConfig,
    WorkloadConfig,
    WorkloadGenerator,
    generate_catalog,
    generate_users,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload (~5x faster)"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    duration = 900.0 if args.quick else 3600.0
    catalog = generate_catalog(
        CatalogConfig(n_products=60), random.Random(args.seed)
    )
    users = generate_users(
        UserPopulationConfig(n_users=30), random.Random(args.seed + 1)
    )
    workload = WorkloadConfig(
        duration=duration,
        session_rate=0.25,
        mean_session_length=5.0,
        think_time_mean=10.0,
        write_rate=0.05,
    )
    trace = WorkloadGenerator(catalog, users, workload).generate(
        random.Random(args.seed + 2)
    )
    print(
        f"workload: {len(trace.page_views())} page views, "
        f"{len(trace.product_updates())} product updates, "
        f"{len(trace.cart_adds())} cart adds over {duration:.0f}s\n"
    )

    scenarios = [
        Scenario.NO_CACHE,
        Scenario.BROWSER_ONLY,
        Scenario.CLASSIC_CDN,
        Scenario.SPEED_KIT,
    ]
    results = {}
    for scenario in scenarios:
        spec = ScenarioSpec(scenario=scenario, seed=args.seed)
        print(f"running {scenario.value} ...")
        results[scenario] = SimulationRunner(
            spec, catalog, users, trace
        ).run()

    print()
    print(
        format_table(
            [results[s].summary_row() for s in scenarios],
            title="Scenario comparison",
        )
    )

    kinds = ("static", "page", "query", "api", "fragment")
    hit_rows = []
    for scenario in scenarios[1:]:
        result = results[scenario]
        row = {"scenario": result.scenario_name}
        row.update(
            {kind: round(result.hit_ratio_for_kind(kind), 3) for kind in kinds}
        )
        hit_rows.append(row)
    print()
    print(format_table(hit_rows, title="Cache hit ratio by content type"))

    print()
    ab = compare_scenarios(
        results[Scenario.CLASSIC_CDN], results[Scenario.SPEED_KIT]
    )
    print(format_table([ab], title="A/B: classic CDN vs Speed Kit"))


if __name__ == "__main__":
    main()

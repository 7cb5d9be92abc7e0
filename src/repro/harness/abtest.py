"""The field A/B experiment: latency → conversion modeling.

The paper's field experiences report business uplift from faster
pages. Absent real shoppers, we use the well-published relationship
between page speed and conversion (roughly: every additional second of
load time costs a double-digit percentage of conversions; Amazon's
"100 ms = 1 % of revenue" folklore) as a logistic response model, apply
it per simulated session, and compare scenarios on identical traffic.
"""

from __future__ import annotations

import math
from typing import Dict, List

from repro.harness.results import RunResult


#: P(conversion | session PLT) is a logistic curve: ``BASE_RATE`` is the
#: conversion probability at ``REFERENCE_PLT`` seconds, ``SENSITIVITY``
#: the log-odds penalty per extra second. Calibrated so that +1 s of
#: median PLT costs ~20 % of conversions around a 3 % base rate — in
#: line with published WPO studies (e.g. the Speed Kit/Baqend white
#: papers).
BASE_RATE = 0.03
REFERENCE_PLT = 1.0
SENSITIVITY = 0.25


def conversion_probability(plt: float) -> float:
    """P(conversion) for a session whose mean PLT is ``plt``."""
    base_logit = math.log(BASE_RATE / (1.0 - BASE_RATE))
    logit = base_logit - SENSITIVITY * (plt - REFERENCE_PLT)
    return 1.0 / (1.0 + math.exp(-logit))


def expected_rate(plts: List[float]) -> float:
    """Expected conversions per session over a list of session PLTs."""
    if not plts:
        return 0.0
    return sum(conversion_probability(plt) for plt in plts) / len(plts)


def compare_scenarios(
    variant_a: RunResult, variant_b: RunResult
) -> Dict[str, float]:
    """The A/B comparison row: PLT uplift and conversion uplift.

    ``variant_a`` is the control (e.g. classic CDN), ``variant_b`` the
    treatment (Speed Kit).
    """
    plt_a = list(variant_a.plt.values)
    plt_b = list(variant_b.plt.values)
    if not plt_a or not plt_b:
        raise ValueError("both variants need page loads to compare")
    median_a = variant_a.plt.percentile(50)
    median_b = variant_b.plt.percentile(50)
    rate_a = expected_rate(plt_a)
    rate_b = expected_rate(plt_b)
    return {
        "control": variant_a.scenario_name,
        "treatment": variant_b.scenario_name,
        "plt_p50_control_ms": round(median_a * 1000, 1),
        "plt_p50_treatment_ms": round(median_b * 1000, 1),
        "plt_speedup": round(median_a / median_b, 2) if median_b else 0.0,
        "conversion_control": round(rate_a, 4),
        "conversion_treatment": round(rate_b, 4),
        "conversion_uplift_pct": round(100 * (rate_b - rate_a) / rate_a, 1)
        if rate_a
        else 0.0,
    }

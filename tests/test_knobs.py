"""Every numeric knob of the config classes refuses what it cannot honour.

Generated rows: each numeric field of the eleven config classes meets
NaN, +inf, -inf, 0, -1 and 2 (and ``None``). A value inside the field's
domain builds; any other is refused with a ``ValueError`` whose message
starts with the field's name. ``DOMAINS`` is the contract the rows are
generated from, one entry per numeric field, and it must name every
numeric field a class declares. Each gate has a committed mutant: a
knob whose domain lets NaN through, a table that misses a knob, and a
class with a number field that declares no domain.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
from typing import Optional

import pytest

from repro.faults import FaultProfile, RetryPolicy
from repro.faults.backend import FaultyBackendSpec
from repro.harness.scenarios import Scenario, ScenarioSpec
from repro.knobs import Domain, knob, knobs
from repro.overload import OverloadProfile
from repro.speedkit.config import SpeedKitConfig
from repro.storage import BACKEND_KINDS, BackendSpec
from repro.workload import CatalogConfig, UserPopulationConfig, WorkloadConfig
from repro.workload.flashsale import FlashSaleConfig


def _finite(low, *, strict=False):
    return lambda value: (low < value if strict else low <= value) and (
        value < math.inf
    )


NON_NEGATIVE = _finite(0.0)
POSITIVE = _finite(0.0, strict=True)
AT_LEAST_ONE = _finite(1.0)


def FRACTION(value):
    return 0.0 <= value <= 1.0


def OPEN_FRACTION(value):
    return 0.0 < value <= 1.0


def _integer(low):
    return lambda value: isinstance(value, int) and value >= low


COUNT = _integer(0)
POSITIVE_COUNT = _integer(1)

#: class -> numeric field -> the values it accepts.
DOMAINS = {
    ScenarioSpec: {
        "delta": NON_NEGATIVE,
        "page_ttl": NON_NEGATIVE,
        "detection_latency": NON_NEGATIVE,
        "purge_latency": NON_NEGATIVE,
        "n_regions": POSITIVE_COUNT,
        "seed": COUNT,
        "n_segments": POSITIVE_COUNT,
        "stale_if_error": NON_NEGATIVE,
        "time_scale": POSITIVE,
        "load_multiplier": AT_LEAST_ONE,
    },
    BackendSpec: {
        "n_shards": POSITIVE_COUNT,
        "read_latency": POSITIVE,
        "write_latency": POSITIVE,
        "latency_sigma": NON_NEGATIVE,
        "per_key_cost": NON_NEGATIVE,
        "batch_window": POSITIVE_COUNT,
        "flush_interval": NON_NEGATIVE,
        "seed": COUNT,
    },
    FaultyBackendSpec: {"error_rate": FRACTION, "fault_seed": COUNT},
    WorkloadConfig: {
        "duration": POSITIVE,
        "session_rate": POSITIVE,
        "mean_session_length": AT_LEAST_ONE,
        "think_time_mean": POSITIVE,
        "write_rate": NON_NEGATIVE,
        "write_zipf_s": NON_NEGATIVE,
        "cart_add_prob": FRACTION,
        "nav_category": FRACTION,
        "nav_product": FRACTION,
        "nav_home": FRACTION,
        "txn_mix": FRACTION,
        "txn_keys": POSITIVE_COUNT,
        "txn_zipf_s": NON_NEGATIVE,
        "erase_fraction": FRACTION,
        "access_rate": NON_NEGATIVE,
    },
    CatalogConfig: {
        "n_products": POSITIVE_COUNT,
        "zipf_s": NON_NEGATIVE,
        "min_price": NON_NEGATIVE,
        "max_price": NON_NEGATIVE,
    },
    UserPopulationConfig: {
        "n_users": POSITIVE_COUNT,
        "logged_in_fraction": FRACTION,
        "consent_fraction": FRACTION,
    },
    FaultProfile: {
        "origin_outage_fraction": FRACTION,
        "origin_outage_count": POSITIVE_COUNT,
        "origin_brownout_rate": FRACTION,
        "pop_outage_fraction": FRACTION,
        "pops_affected": COUNT,
        "link_loss_rate": FRACTION,
        "latency_spike_rate": FRACTION,
        "latency_spike_factor": AT_LEAST_ONE,
        "storage_error_rate": FRACTION,
    },
    OverloadProfile: {
        "origin_capacity": COUNT,
        "origin_service_time": NON_NEGATIVE,
        "pop_capacity": COUNT,
        "pop_service_time": NON_NEGATIVE,
        "queue_limit": POSITIVE_COUNT,
        "personalized_queue_limit": POSITIVE_COUNT,
        "slo": POSITIVE,
    },
    RetryPolicy: {"budget": POSITIVE},
    SpeedKitConfig: {
        "sketch_refresh_interval": POSITIVE,
        "sw_cache_max_entries": POSITIVE_COUNT,
        "sw_cache_max_bytes": POSITIVE_COUNT,
        "swr_staleness_budget": NON_NEGATIVE,
        "stale_if_error_window": NON_NEGATIVE,
    },
    FlashSaleConfig: {
        "start": NON_NEGATIVE,
        "end": POSITIVE,
        "discount": OPEN_FRACTION,
        "spike_rate": NON_NEGATIVE,
        "spike_session_length": POSITIVE_COUNT,
    },
}


def _base(cls, name) -> dict:
    """Keyword arguments that keep every rule relating two fields quiet
    while ``name`` alone takes a probe value."""
    if cls is ScenarioSpec:
        # Classic CDN: Δ = 0 is a Speed Kit refusal; the purge must not
        # complete before detection.
        return {
            "scenario": Scenario.CLASSIC_CDN,
            "detection_latency": 0.0,
            "purge_latency": 2.0,
        }
    if cls in (BackendSpec, FaultyBackendSpec):
        # An engine that reads the field: a tuning value another engine
        # would ignore is refused for that reason.
        fields = {f.name: f for f in dataclasses.fields(BackendSpec)}
        read_by = BACKEND_KINDS
        if name in fields:
            read_by = fields[name].metadata.get("read_by", BACKEND_KINDS)
        return {"kind": read_by[-1]}
    if cls is WorkloadConfig and name.startswith("nav_"):
        # The navigation mix still sums to 1 around the probed share.
        other = "nav_product" if name == "nav_category" else "nav_category"
        mix = dict.fromkeys(("nav_category", "nav_product", "nav_home"), 0.0)
        return {**mix, other: 1.0}
    if cls is CatalogConfig:
        return {"min_price": 0.0}
    if cls is OverloadProfile:
        return {"name": "probe", "personalized_queue_limit": 1}
    if cls is FlashSaleConfig:
        return {"start": 0.0}
    return {}


def _rows():
    for cls, domains in DOMAINS.items():
        annotations = {f.name: f.type for f in dataclasses.fields(cls)}
        for name, admits in domains.items():
            annotation = str(annotations[name])
            if "int" in annotation:
                probes = [math.nan, math.inf, -math.inf, 0, -1, 2]
            else:
                probes = [math.nan, math.inf, -math.inf, 0.0, -1.0, 2.0]
            probes.append(None)
            for value in probes:
                accepted = (
                    "Optional" in annotation
                    if value is None
                    else admits(value)
                )
                yield pytest.param(
                    cls, name, value, accepted,
                    id=f"{cls.__name__}.{name}={value}",
                )  # fmt: skip


def _check_row(cls, name, value, accepted):
    kwargs = {**_base(cls, name), name: value}
    if accepted:
        assert getattr(cls(**kwargs), name) is value
    else:
        with pytest.raises(ValueError) as err:
            cls(**kwargs)
        assert str(err.value).startswith(f"{name} "), err.value


@pytest.mark.parametrize("cls, name, value, accepted", list(_rows()))
def test_a_knob_accepts_exactly_its_domain(cls, name, value, accepted):
    _check_row(cls, name, value, accepted)


def _check_assignment(cls, name, value, accepted):
    built = cls(**_base(cls, name))
    if accepted:
        setattr(built, name, value)
        assert getattr(built, name) is value
    else:
        before = getattr(built, name)
        with pytest.raises(ValueError) as err:
            setattr(built, name, value)
        assert str(err.value) == (
            f"{name} must be {_declared_domain(cls, name).text}: {value!r}"
        )
        assert getattr(built, name) is before


def _declared_domain(cls, name) -> Domain:
    return {f.name: f for f in dataclasses.fields(cls)}[name].metadata["domain"]


#: The classes whose instances can be assigned to (the rest are frozen).
MUTABLE = [cls for cls in DOMAINS if not cls.__dataclass_params__.frozen]


def test_six_config_classes_are_mutable():
    assert {cls.__name__ for cls in MUTABLE} == {
        "ScenarioSpec",
        "WorkloadConfig",
        "CatalogConfig",
        "UserPopulationConfig",
        "SpeedKitConfig",
        "FlashSaleConfig",
    }


@pytest.mark.parametrize(
    "cls, name, value, accepted",
    [row for row in _rows() if row.values[0] in MUTABLE],
)
def test_an_assignment_accepts_exactly_the_knobs_domain(cls, name, value, accepted):
    """The same rows as above, assigned to a built instance: a knob's
    own domain is checked on assignment too, with the same message."""
    _check_assignment(cls, name, value, accepted)


def test_the_refusal_gate_trips_on_a_domain_that_admits_nan():
    """The mutant: a fraction checked as ``not (v < 0 or v > 1)``, the
    shape that let NaN through the hand-written checks."""

    @dataclasses.dataclass
    @knobs
    class Mutant:
        share: float = knob(0.5, Domain("in [0, 1]", lambda v: not (v < 0 or v > 1)))

    _check_row(Mutant, "share", 0.0, True)
    with pytest.raises(pytest.fail.Exception):
        _check_row(Mutant, "share", math.nan, False)


def _unwalked(cls, table) -> set:
    """``cls``'s own number fields that ``table`` does not walk."""
    numbers = {
        name
        for name, annotation in inspect.get_annotations(cls).items()
        if annotation.removeprefix("Optional[").rstrip("]") in ("int", "float")
    }
    return numbers - set(table.get(cls, ()))


@pytest.mark.parametrize("cls", list(DOMAINS), ids=lambda cls: cls.__name__)
def test_the_rows_walk_every_numeric_knob(cls):
    assert not _unwalked(cls, DOMAINS)


def test_the_walk_gate_trips_on_a_knob_the_table_misses():
    table = {**DOMAINS, WorkloadConfig: dict(DOMAINS[WorkloadConfig])}
    del table[WorkloadConfig]["access_rate"]
    assert _unwalked(WorkloadConfig, table) == {"access_rate"}


def test_a_float_without_a_domain_fails_class_creation():
    with pytest.raises(TypeError, match="Undeclared.rate is a number with no domain"):

        @dataclasses.dataclass
        @knobs
        class Undeclared:
            rate: float = 0.5


def test_an_optional_int_without_a_domain_fails_class_creation():
    with pytest.raises(TypeError, match="Undeclared.limit is a number with no domain"):

        @dataclasses.dataclass
        @knobs
        class Undeclared:
            limit: Optional[int] = None


def test_bools_strings_and_declared_numbers_need_nothing_more():
    @dataclasses.dataclass
    @knobs
    class Declared:
        on: bool = False
        label: str = "x"
        rate: float = knob(0.5, Domain("in [0, 1]", lambda v: 0 <= v <= 1))

    assert Declared().rate == 0.5
    with pytest.raises(ValueError, match=r"^rate must be in \[0, 1\]: 2.0$"):
        Declared(rate=2.0)

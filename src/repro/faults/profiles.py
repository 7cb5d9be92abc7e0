"""Declarative fault profiles: what goes wrong, how often, how hard.

A :class:`FaultProfile` is a serializable description of a failure
regime — origin outages and brownouts, per-PoP failures, link loss and
latency spikes, storage-engine error rates. It carries *rates and
fractions*, not concrete schedules: :meth:`FaultProfile.build` turns it
into a :class:`~repro.faults.injector.FaultInjector` for one run, with
every outage window and every coin flip drawn from a seeded RNG so a
given ``(profile, duration, seed)`` always produces the same faults.

The named profiles (``PROFILES``) are the vocabulary of the fault
experiments and the ``--fault-profile`` CLI flag:

* ``none`` — the perfect world every other experiment assumes;
* ``outage`` — the origin is dark for 10 % of the run (two windows);
* ``flaky`` — lossy links, latency spikes, occasional origin 5xx;
* ``pop-down`` — one PoP fails for 15 % of the run;
* ``chaos`` — all of the above at once, plus storage read errors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

from repro.knobs import AT_LEAST_ONE, FRACTION, integer, knob, knobs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing
    from repro.faults.injector import FaultInjector


@dataclass(frozen=True)
@knobs
class FaultProfile:
    """One failure regime, independent of any concrete run."""

    name: str = "none"
    #: Fraction of the run the origin is completely down, split into
    #: ``origin_outage_count`` windows.
    origin_outage_fraction: float = knob(0.0, FRACTION)
    origin_outage_count: int = knob(1, integer(1))
    #: Probability that the origin answers 5xx outside outage windows
    #: (a brownout: overloaded, not dead).
    origin_brownout_rate: float = knob(0.0, FRACTION)
    #: Per-PoP failures: ``pops_affected`` PoPs are each dark for
    #: ``pop_outage_fraction`` of the run (windows drawn per PoP).
    pop_outage_fraction: float = knob(0.0, FRACTION)
    pops_affected: int = knob(1, integer(0))
    #: Probability that any single message traversal is lost.
    link_loss_rate: float = knob(0.0, FRACTION)
    #: Probability that a traversal's delay is multiplied by
    #: ``latency_spike_factor`` (congestion, bufferbloat).
    latency_spike_rate: float = knob(0.0, FRACTION)
    latency_spike_factor: float = knob(1.0, AT_LEAST_ONE)
    #: Probability that a storage-engine read fails (times out); the
    #: cache tier sees a miss and degrades gracefully.
    storage_error_rate: float = knob(0.0, FRACTION)

    @property
    def is_active(self) -> bool:
        """Whether this profile injects any fault at all: whether any of
        its rates and fractions (its ``FRACTION`` knobs) is nonzero."""
        return any(
            getattr(self, f.name) > 0
            for f in fields(self)
            if f.metadata.get("domain") is FRACTION
        )

    def build(
        self,
        duration: float,
        pop_names: Sequence[str] = (),
        seed: int = 0,
    ) -> "FaultInjector":
        """A concrete, seeded injector for one run of ``duration``."""
        from repro.faults.injector import FaultInjector

        return FaultInjector(
            self, duration=duration, pop_names=pop_names, seed=seed
        )

    @classmethod
    def named(cls, name: str) -> "FaultProfile":
        """Look up one of the canonical profiles by name."""
        try:
            return PROFILES[name]
        except KeyError:
            raise ValueError(
                f"unknown fault profile {name!r}; "
                f"choose from {sorted(PROFILES)}"
            ) from None


#: The canonical profiles, in CLI order.
PROFILES = {
    "none": FaultProfile(name="none"),
    "outage": FaultProfile(
        name="outage",
        origin_outage_fraction=0.10,
        origin_outage_count=2,
    ),
    "flaky": FaultProfile(
        name="flaky",
        link_loss_rate=0.02,
        latency_spike_rate=0.05,
        latency_spike_factor=8.0,
        origin_brownout_rate=0.01,
    ),
    "pop-down": FaultProfile(
        name="pop-down",
        pop_outage_fraction=0.15,
        pops_affected=1,
    ),
    "chaos": FaultProfile(
        name="chaos",
        origin_outage_fraction=0.05,
        origin_outage_count=2,
        origin_brownout_rate=0.01,
        pop_outage_fraction=0.10,
        pops_affected=1,
        link_loss_rate=0.01,
        latency_spike_rate=0.03,
        latency_spike_factor=5.0,
        storage_error_rate=0.02,
    ),
}

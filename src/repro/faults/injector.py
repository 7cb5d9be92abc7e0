"""The runtime fault oracle one simulation consults.

A :class:`FaultInjector` materializes a
:class:`~repro.faults.profiles.FaultProfile` for one run: outage
windows are drawn up front from a seeded RNG (so the schedule is fixed
and reproducible), while per-message coin flips (link loss, latency
spikes, brownout 5xx) are drawn lazily from a *separate* seeded stream
so the fault decisions never perturb the simulation's own RNG streams.

It subclasses :class:`~repro.simnet.faults.FaultSchedule`, which
declares the whole oracle surface: ``is_down`` (scheduled outages —
all the sketch client asks) and the per-message queries the transport
calls on every hop, ``should_fail``, ``loses_message`` and
``latency_factor``. The base answers those three without a draw; this
class overrides them, so a plain hand-built ``FaultSchedule`` and
:data:`~repro.simnet.faults.NO_FAULTS` plug into the same seam.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.faults.profiles import FaultProfile
from repro.simnet.faults import FaultSchedule
from repro.simnet.topology import ORIGIN_NODE

#: Decorrelates the decision stream from the window-placement stream.
_DECISION_SALT = 0x5EED_FA17


def _draw_windows(
    rng: random.Random, duration: float, fraction: float, count: int
):
    """``count`` disjoint windows totalling ``fraction`` of the run.

    Windows land inside the middle [10 %, 95 %] of the run, one per
    equal slot, so warm-up traffic exists before the first failure and
    the run ends with the system recovered.
    """
    if fraction <= 0 or duration <= 0:
        return
    usable_start = 0.10 * duration
    usable = 0.95 * duration - usable_start
    width = (fraction * duration) / count
    slot = usable / count
    if width >= slot:
        # Degenerate (tiny run / huge fraction): one contiguous window.
        yield usable_start, usable_start + min(fraction * duration, usable)
        return
    for index in range(count):
        slot_start = usable_start + index * slot
        start = slot_start + rng.uniform(0.0, slot - width)
        yield start, start + width


class FaultInjector(FaultSchedule):
    """A profile bound to one run's duration, PoP set, and seed."""

    def __init__(
        self,
        profile: FaultProfile,
        duration: float,
        pop_names: Sequence[str] = (),
        seed: int = 0,
    ) -> None:
        super().__init__()
        if duration < 0:
            raise ValueError(f"duration must be >= 0: {duration}")
        self.profile = profile
        self.duration = duration
        placement = random.Random(seed)
        for start, end in _draw_windows(
            placement,
            duration,
            profile.origin_outage_fraction,
            profile.origin_outage_count,
        ):
            self.add_outage(ORIGIN_NODE, start, end)
        affected = sorted(pop_names)[: profile.pops_affected]
        for pop in affected:
            for start, end in _draw_windows(
                placement, duration, profile.pop_outage_fraction, 1
            ):
                self.add_outage(pop, start, end)
        self._decisions = random.Random(seed ^ _DECISION_SALT)

    # -- per-request fault decisions --------------------------------------

    def should_fail(self, node: str, at: float) -> bool:
        """Whether ``node`` fails a request arriving at ``at``.

        Scheduled outages always fail; outside them the origin may
        brown out (answer 5xx) probabilistically.
        """
        if self.is_down(node, at):
            return True
        if node == ORIGIN_NODE and self.profile.origin_brownout_rate > 0:
            return (
                self._decisions.random() < self.profile.origin_brownout_rate
            )
        return False

    def loses_message(self, sender: str, receiver: str) -> bool:
        """Whether one message traversal is lost in transit."""
        rate = self.profile.link_loss_rate
        return rate > 0 and self._decisions.random() < rate

    def latency_factor(self, sender: str, receiver: str) -> float:
        """Delay multiplier for one traversal (1.0 = nominal)."""
        rate = self.profile.latency_spike_rate
        if rate > 0 and self._decisions.random() < rate:
            return self.profile.latency_spike_factor
        return 1.0

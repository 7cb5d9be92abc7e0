"""Discrete-event simulation kernel.

A minimal, dependency-free process-based simulator in the style of
SimPy: an :class:`Environment` owns a simulated clock and an event
queue, and *processes* are Python generators that ``yield`` events
(timeouts, other processes, or bare events) to suspend until those
events trigger.

The kernel is deterministic: events scheduled for the same simulated
time fire in scheduling order, and all randomness in higher layers is
drawn from explicitly seeded generators (see :mod:`repro.sim.rng`).
"""

from repro.sim.environment import Environment, Interrupt, StopSimulation
from repro.sim.events import Event, Process, Timeout
from repro.sim.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    TimeSeries,
)
from repro.sim.rng import RngStreams

__all__ = [
    "Counter",
    "Environment",
    "Event",
    "Gauge",
    "Histogram",
    "Interrupt",
    "MetricRegistry",
    "Process",
    "RngStreams",
    "StopSimulation",
    "TimeSeries",
    "Timeout",
]

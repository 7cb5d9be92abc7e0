"""Overload control plane: admission, priority shedding, autoscaling.

The fault layer (:mod:`repro.faults`) proves the stack survives
*failure*; this package proves it survives *success* — flash-sale
overload at multiples of nominal traffic. Three cooperating parts:

* :class:`NodeGovernor` — per-node concurrency slots with a bounded
  priority queue in front of every governed PoP and the origin;
* :class:`ControlPlane` — the per-run assembly, plus the control lane
  that invalidation and GDPR erasure ride (never shed);
* :class:`PopAutoscaler` — a closed control loop scaling PoP capacity
  from the :mod:`repro.obs` metrics stream with hysteresis and a
  seeded, deterministic decision stream.

Shed requests resolve to synthesized responses marked
:data:`LOAD_SHED_HEADER` with ``Cache-Control: no-store``, under the
degraded-response contract of :mod:`repro.http.degraded`.
"""

from repro.overload.autoscaler import PopAutoscaler, ScaleDecision
from repro.overload.governor import NodeGovernor
from repro.overload.plane import ControlPlane
from repro.overload.priority import (
    LOAD_SHED_HEADER,
    PriorityClass,
    classify_request,
)
from repro.overload.profiles import OVERLOAD_PROFILES, OverloadProfile

__all__ = [
    "ControlPlane",
    "LOAD_SHED_HEADER",
    "NodeGovernor",
    "OVERLOAD_PROFILES",
    "OverloadProfile",
    "PopAutoscaler",
    "PriorityClass",
    "ScaleDecision",
    "classify_request",
]

"""Every network leg the transport pays is one delay draw, scaled by the
fault oracle exactly where the oracle is asked.

The transport looks each sender's route up once and asks the fault
oracle nothing when the run has none (``NO_FAULTS``). With any other
oracle, every query is made where it always was and in the same order,
so an injector's coin flips are drawn as they always were. The gate
replays direct and CDN fetches against a reference that spells the
legs out query by query — ``link.delay.sample(rng) *
oracle.latency_factor(a, b)``, a lost message's timeout, a failed
node's 503 — on a twin generator and a twin oracle, and compares every
leg, every status and the generators' final states. It runs under
``NO_FAULTS``, under an outage-only :class:`FaultSchedule` and under
chaos injectors; a committed mutant that skips the oracle for a plain
``FaultSchedule`` trips it.
"""

import random
import sys
import types
from pathlib import Path

import pytest

from repro.browser import Transport, transport as transport_module
from repro.browser.transport import ATTEMPT_TIMEOUT
from repro.cdn import Cdn
from repro.faults import FaultProfile
from repro.http import Request, URL
from repro.origin import OriginServer, ResourceKind, ResourceSpec, Site
from repro.sim import Environment
from repro.simnet import (
    NO_FAULTS,
    FaultSchedule,
    Link,
    LogNormalDelay,
    NodeKind,
    Topology,
)
from repro.simnet.topology import ORIGIN_NODE

CLIENT, EDGE = "client", "edge"
FETCHES = 60


class RecordingEnvironment(Environment):
    """Notes the delay of every timeout, in the order they are made."""

    def __init__(self):
        super().__init__()
        self.legs = []

    def timeout(self, delay, value=None):
        self.legs.append(delay)
        return super().timeout(delay, value)


def topology():
    """Jittered links with no bandwidth limit: a leg is its draw alone."""
    topo = Topology()
    topo.add_node(CLIENT, NodeKind.CLIENT)
    topo.add_node(EDGE, NodeKind.EDGE)
    topo.add_node(ORIGIN_NODE, NodeKind.ORIGIN)
    topo.connect(CLIENT, EDGE, Link(LogNormalDelay(0.02, 0.5)))
    topo.connect(EDGE, ORIGIN_NODE, Link(LogNormalDelay(0.03, 0.3)))
    topo.connect(CLIENT, ORIGIN_NODE, Link(LogNormalDelay(0.05, 0.4)))
    return topo


def site():
    site = Site()
    site.add_route(
        ResourceSpec(
            name="page",
            pattern="/p/{id}",
            kind=ResourceKind.PAGE,
            doc_keys=lambda p: ["pages/1"],
        )
    )
    site.store.put("pages", "1", {"title": "one"})
    return site


class Reference:
    """The legs a fetch pays, spelled out query by query."""

    def __init__(self, topology, rng, oracle):
        self.topology = topology
        self.rng = rng
        self.oracle = oracle
        self.now = 0.0
        self.legs = []
        self.factors = []

    def leg(self, delay):
        self.legs.append(delay)
        self.now += delay

    def factor(self, sender, receiver):
        factor = self.oracle.latency_factor(sender, receiver)
        self.factors.append(factor)
        return factor

    def exchange(self, sender):
        """One origin attempt from ``sender``; its status (``None``: lost)."""
        oracle, link = self.oracle, self.topology.link(sender, ORIGIN_NODE)
        if oracle.loses_message(sender, ORIGIN_NODE):
            self.leg(ATTEMPT_TIMEOUT)
            return None
        forward = link.delay.sample(self.rng) * self.factor(sender, ORIGIN_NODE)
        self.leg(forward)
        status = 503 if oracle.should_fail(ORIGIN_NODE, self.now) else 200
        if oracle.loses_message(ORIGIN_NODE, sender):
            self.leg(max(0.0, ATTEMPT_TIMEOUT - forward))
            return None
        self.leg(link.delay.sample(self.rng) * self.factor(ORIGIN_NODE, sender))
        return status

    def direct(self):
        status = self.exchange(CLIENT)
        return 503 if status is None else status

    def via_cdn(self):
        link = self.topology.link(CLIENT, EDGE)
        self.leg(link.delay.sample(self.rng) * self.factor(CLIENT, EDGE))
        if self.oracle.should_fail(EDGE, self.now):
            return self.direct()
        status = self.exchange(EDGE)  # every URL is new: a miss
        self.leg(link.delay.sample(self.rng) * self.factor(EDGE, CLIENT))
        return 503 if status is None else status


def leg_mismatches(transport_class, make_oracle):
    """Where ``transport_class`` departs from :class:`Reference` — a leg,
    a status or a generator's final state — plus the statuses it saw and
    the reference itself."""
    env = RecordingEnvironment()
    rng, twin = random.Random(11), random.Random(11)
    topo = topology()
    transport = transport_class(
        env, topo, OriginServer(site()), rng, faults=make_oracle()
    )
    reference = Reference(topo, twin, make_oracle())
    cdn = Cdn([EDGE])
    found, statuses = [], []
    for index in range(FETCHES):
        request = Request.get(URL.parse(f"/p/{index}"))
        if index % 2:
            fetch = transport.fetch_direct(CLIENT, request)
            expected = reference.direct()
        else:
            fetch = transport.fetch_via_cdn(CLIENT, request, cdn)
            expected = reference.via_cdn()
        process = env.process(fetch)
        env.run()
        statuses.append(int(process.value.status))
        if statuses[-1] != expected:
            found.append((index, "status", statuses[-1], expected))
    if env.legs != reference.legs:
        pairs = zip(env.legs, reference.legs)
        first = next(
            (i for i, (paid, drawn) in enumerate(pairs) if paid != drawn),
            min(len(env.legs), len(reference.legs)),
        )
        found.append(("leg", first, len(env.legs), len(reference.legs)))
    if rng.getstate() != twin.getstate():
        found.append("network generator state")
    oracle_state = getattr(transport.faults, "_decisions", None)
    if oracle_state is not None and (
        oracle_state.getstate() != reference.oracle._decisions.getstate()
    ):
        found.append("fault decision generator state")
    return found, statuses, reference


def outages():
    schedule = FaultSchedule()
    schedule.add_outage(ORIGIN_NODE, 1.0, 2.0)
    schedule.add_outage(EDGE, 3.0, 3.5)
    return schedule


HARSH = FaultProfile(
    name="harsh",
    origin_outage_fraction=0.1,
    origin_brownout_rate=0.1,
    pop_outage_fraction=0.1,
    pops_affected=1,
    link_loss_rate=0.1,
    latency_spike_rate=0.3,
    latency_spike_factor=3.0,
)

ORACLES = {
    "no-faults": lambda: NO_FAULTS,
    "outages": outages,
    "chaos": lambda: FaultProfile.named("chaos").build(8.0, [EDGE], seed=5),
    "harsh": lambda: HARSH.build(8.0, [EDGE], seed=5),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_every_leg_is_one_draw_scaled_by_the_oracle(name):
    found, statuses, _ = leg_mismatches(Transport, ORACLES[name])
    assert found == []
    if name in ("outages", "harsh"):
        assert 503 in statuses and 200 in statuses  # the oracle was heard


def test_the_harsh_injector_loses_and_slows_messages():
    """The draw gate has something to compare under chaos: messages are
    lost (a leg of the attempt timeout) and legs spike."""
    _, _, reference = leg_mismatches(Transport, ORACLES["harsh"])
    assert ATTEMPT_TIMEOUT in reference.legs
    assert HARSH.latency_spike_factor in reference.factors


def mutant_transport(monkeypatch, honest, mutated):
    """``Transport`` from a copy of its module with one edit."""
    source = Path(transport_module.__file__).read_text(encoding="utf-8")
    assert source.count(honest) >= 1
    mutant = types.ModuleType("repro_transport_mutant")
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source.replace(honest, mutated), "mutant", "exec"), mutant.__dict__)
    return mutant.Transport


def test_the_draw_gate_trips_when_a_plain_schedule_is_not_asked(monkeypatch):
    """The mutant: the oracle is skipped for any plain ``FaultSchedule``,
    not only for ``NO_FAULTS`` — the outages never happen."""
    mutant = mutant_transport(
        monkeypatch,
        "faulty = faults is not NO_FAULTS",
        "faulty = type(faults) is not FaultSchedule",
    )
    assert leg_mismatches(mutant, ORACLES["no-faults"])[0] == []
    assert leg_mismatches(mutant, ORACLES["outages"])[0] != []

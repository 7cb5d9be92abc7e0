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
leg, every answer and the generators' final states. It runs under
``NO_FAULTS``, under an outage-only :class:`FaultSchedule` and under
chaos injectors; a committed mutant that skips the oracle for a plain
``FaultSchedule`` trips it.

An answer is compared whole: its status, ``served_by``,
``generated_at`` and headers. The reference keeps the exchange's
historical rule — a lost attempt is nothing, and the exchange resolves
it to a ``network`` 503 stamped when the sender gives up — with and
without a :class:`RetryPolicy`; a twin origin renders what the origin
should answer. A committed mutant that stamps a lost attempt's 503
before the sender has waited trips it.
"""

import random
import sys
import types
from pathlib import Path

import pytest

from repro.browser import Transport, transport as transport_module
from repro.browser.transport import ATTEMPT_TIMEOUT
from repro.faults.retry import BASE_BACKOFF
from repro.cdn import Cdn
from repro.faults import FaultProfile, RetryPolicy
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


#: The headers of an answer nobody rendered.
NO_STORE = {"Cache-Control": "no-store"}


def answer_of(response):
    """What the gate compares of one answer."""
    return (
        int(response.status),
        response.served_by,
        response.generated_at,
        dict(response.headers.items()),
    )


class Reference:
    """The legs a fetch pays and the answer it gets, spelled out query
    by query."""

    def __init__(self, topology, rng, oracle, retry=None):
        self.topology = topology
        self.rng = rng
        self.oracle = oracle
        self.retry = retry
        self.origin = OriginServer(site())
        self.now = 0.0
        self.legs = []
        self.factors = []
        self.lost = {"request": 0, "response": 0}
        #: Exchanges that ended in the sender's own 503.
        self.gave_up = 0

    def leg(self, delay):
        self.legs.append(delay)
        self.now += delay

    def factor(self, sender, receiver):
        factor = self.oracle.latency_factor(sender, receiver)
        self.factors.append(factor)
        return factor

    def attempt(self, sender, request):
        """One origin attempt from ``sender``; its answer (``None``: lost)."""
        oracle, link = self.oracle, self.topology.link(sender, ORIGIN_NODE)
        if oracle.loses_message(sender, ORIGIN_NODE):
            self.lost["request"] += 1
            self.leg(ATTEMPT_TIMEOUT)
            return None
        forward = link.delay.sample(self.rng) * self.factor(sender, ORIGIN_NODE)
        self.leg(forward)
        if oracle.should_fail(ORIGIN_NODE, self.now):
            answer = (503, ORIGIN_NODE, self.now, NO_STORE)
        else:
            answer = answer_of(self.origin.handle(request, self.now))
        if oracle.loses_message(ORIGIN_NODE, sender):
            self.lost["response"] += 1
            self.leg(max(0.0, ATTEMPT_TIMEOUT - forward))
            return None
        self.leg(link.delay.sample(self.rng) * self.factor(ORIGIN_NODE, sender))
        return answer

    def exchange(self, sender, request):
        """Attempts under the retry policy, if any; a request that got
        no answer gets a ``network`` 503 stamped when the sender stops."""
        policy = self.retry
        if policy is None:
            answer = self.attempt(sender, request)
        else:
            deadline = self.now + policy.budget
            attempt = 0
            while True:
                attempt += 1
                answer = self.attempt(sender, request)
                if answer is not None and answer[0] < 500:
                    break
                if policy.gives_up_after(attempt):
                    break
                backoff = policy.backoff_after(attempt)
                if self.now + backoff >= deadline:
                    break
                self.leg(backoff)
        if answer is None:
            self.gave_up += 1
            answer = (503, "network", self.now, NO_STORE)
        return answer

    def direct(self, request):
        return self.exchange(CLIENT, request)

    def via_cdn(self, request):
        link = self.topology.link(CLIENT, EDGE)
        self.leg(link.delay.sample(self.rng) * self.factor(CLIENT, EDGE))
        if self.oracle.should_fail(EDGE, self.now):
            return self.direct(request)
        answer = self.exchange(EDGE, request)  # every URL is new: a miss
        self.leg(link.delay.sample(self.rng) * self.factor(EDGE, CLIENT))
        return answer


def leg_mismatches(transport_class, make_oracle, retry=None):
    """Where ``transport_class`` departs from :class:`Reference` — a leg,
    an answer or a generator's final state — plus the statuses it saw
    and the reference itself."""
    env = RecordingEnvironment()
    rng, twin = random.Random(11), random.Random(11)
    topo = topology()
    transport = transport_class(
        env, topo, OriginServer(site()), rng, faults=make_oracle(), retry=retry
    )
    reference = Reference(topo, twin, make_oracle(), retry)
    cdn = Cdn([EDGE])
    found, statuses = [], []
    for index in range(FETCHES):
        request = Request.get(URL.parse(f"/p/{index}"))
        if index % 2:
            fetch = transport.fetch_direct(CLIENT, request)
            expected = reference.direct(request)
        else:
            fetch = transport.fetch_via_cdn(CLIENT, request, cdn)
            expected = reference.via_cdn(request)
        process = env.process(fetch)
        env.run()
        answer = answer_of(process.value)
        statuses.append(answer[0])
        if answer != expected:
            found.append((index, "answer", answer, expected))
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


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_every_answer_follows_the_exchange_rule_under_a_retry_policy(name):
    found, statuses, reference = leg_mismatches(Transport, ORACLES[name], RetryPolicy())
    assert found == []
    if name == "outages":
        assert 503 in statuses and 200 in statuses
    if name in ("chaos", "harsh"):
        assert BASE_BACKOFF in reference.legs  # a lost attempt was retried


@pytest.mark.parametrize("retry", [None, RetryPolicy()], ids=["single", "retry"])
def test_the_answer_gate_sees_lost_requests_and_lost_responses(retry):
    """Both kinds of loss happen, and some of them end in the sender's
    own 503, with and without retries."""
    found, statuses, reference = leg_mismatches(Transport, ORACLES["harsh"], retry)
    assert found == []
    assert reference.lost["request"] > 0 and reference.lost["response"] > 0
    assert reference.gave_up > 0


def mutant_transport(monkeypatch, *edits):
    """``Transport`` from a copy of its module with ``(honest, mutated)``
    edits applied."""
    source = Path(transport_module.__file__).read_text(encoding="utf-8")
    for honest, mutated in edits:
        assert source.count(honest) >= 1
        source = source.replace(honest, mutated)
    mutant = types.ModuleType("repro_transport_mutant")
    monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
    exec(compile(source, "mutant", "exec"), mutant.__dict__)
    return mutant.Transport


def test_the_draw_gate_trips_when_a_plain_schedule_is_not_asked(monkeypatch):
    """The mutant: the oracle is skipped for any plain ``FaultSchedule``,
    not only for ``NO_FAULTS`` — the outages never happen."""
    mutant = mutant_transport(
        monkeypatch,
        (
            "faulty = faults is not NO_FAULTS",
            "faulty = type(faults) is not FaultSchedule",
        ),
    )
    assert leg_mismatches(mutant, ORACLES["no-faults"])[0] == []
    assert leg_mismatches(mutant, ORACLES["outages"])[0] != []


def test_the_answer_gate_trips_when_a_lost_attempt_is_stamped_early(monkeypatch):
    """The mutant: the sender's 503 for a lost attempt is built before
    the sender has waited for the reply, not when it gives up."""
    waits = (
        "yield env.timeout(ATTEMPT_TIMEOUT)\n",
        "yield env.timeout(max(0.0, ATTEMPT_TIMEOUT - forward))\n",
    )
    pad = " " * 12
    give_up = pad + 'return self._synthesized(request, "network")\n'
    build = pad + 'lost = self._synthesized(request, "network")\n'
    edits = [
        (pad + wait + give_up, build + pad + wait + pad + "return lost\n")
        for wait in waits
    ]
    mutant = mutant_transport(monkeypatch, *edits)
    assert leg_mismatches(mutant, ORACLES["outages"])[0] == []
    for retry in (None, RetryPolicy()):
        found = leg_mismatches(mutant, ORACLES["harsh"], retry)[0]
        assert found and {kind for _, kind, *_ in found} == {"answer"}

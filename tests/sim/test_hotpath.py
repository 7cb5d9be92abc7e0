"""The kernel hot path after the raw-speed pass.

The event drain loop in :meth:`Environment.run` was inlined (one heap
pop per kernel event, no per-event method dispatch), events carry
``__slots__``, and the kernel counts its pops. These tests pin the
semantics that rewrite must preserve: ordering, error propagation,
defusing, and the step counter the throughput metric is built on.
"""

import heapq
import math

import pytest

from repro.sim import Environment, RngStreams
from repro.sim.rng import spawn_seed


# -- kernel drain loop ------------------------------------------------------


def test_steps_counts_every_event_pop():
    env = Environment()

    def ticker():
        for _ in range(5):
            yield env.timeout(1.0)

    env.process(ticker())
    env.run()
    # Exactly the 5 timeouts: a process starts inline and hands its
    # return value to its waiters in place, so neither its start nor
    # its end is a kernel event.
    assert env.steps == 5
    before = env.steps
    env.run()  # drained queue: no further steps
    assert env.steps == before


def test_fifo_order_among_simultaneous_events():
    env = Environment()
    order = []

    def maker(tag):
        def proc():
            order.append(tag)
            return None
            yield  # pragma: no cover - makes this a generator

        return proc()

    for tag in range(50):
        env.process(maker(tag))
    env.run()
    assert order == list(range(50))


def test_time_order_with_many_interleaved_timeouts():
    env = Environment()
    fired = []

    def waiter(delay):
        yield env.timeout(delay)
        fired.append(delay)

    delays = [((i * 7919) % 1000) / 10.0 for i in range(500)]
    for delay in delays:
        env.process(waiter(delay))
    env.run()
    assert fired == sorted(delays)
    assert env.now == max(delays)


def test_failed_event_still_raises_out_of_run():
    env = Environment()

    def failer():
        raise RuntimeError("boom")
        yield  # pragma: no cover - makes this a generator

    env.process(failer())
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_heap_tiebreak_is_insertion_sequence():
    # The kernel's queue entries are (time, seq, event): equal times
    # must never compare events (no __lt__ on Event) and must preserve
    # schedule order.
    entries = [(1.0, seq, object()) for seq in range(100)]
    heap = []
    for entry in reversed(entries):
        heapq.heappush(heap, entry)
    popped = [heapq.heappop(heap)[1] for _ in range(len(heap))]
    assert popped == list(range(100))


def test_events_reject_ad_hoc_attributes():
    # __slots__ on the event types is part of the hot-path contract:
    # accidental per-event attribute writes (which would silently cost
    # a dict per event) fail loudly instead.
    env = Environment()
    event = env.timeout(1.0)
    with pytest.raises(AttributeError):
        event.arbitrary_attribute = 1


# -- spawn-keyed substreams -------------------------------------------------


def test_spawn_seed_is_stable_and_index_keyed():
    assert spawn_seed(7, 0) == spawn_seed(7, 0)
    assert spawn_seed(7, 0) != spawn_seed(7, 1)
    assert spawn_seed(7, 0) != spawn_seed(8, 0)
    assert RngStreams(7).spawn(3).root_seed == spawn_seed(7, 3)


def test_spawn_families_do_not_collide_with_root_or_forks():
    seeds = {RngStreams(11).root_seed}
    seeds.add(RngStreams(11).fork("client-1").root_seed)
    for index in range(64):
        seeds.add(spawn_seed(11, index))
    assert len(seeds) == 66  # all distinct


def test_spawn_substreams_are_independent_chi_square():
    """Chi-square uniformity + overlap check across spawned families.

    Pool the first draws of many spawned substreams: if families were
    correlated (e.g. sequential seeding), the pooled sample would
    cluster. The chi-square statistic over 16 bins must sit inside a
    generous acceptance band, and pairwise overlap of the first 100
    draws of neighbouring families must be empty.
    """
    n_families, n_bins = 256, 16
    draws = [
        RngStreams(0).spawn(index).stream("network").random()
        for index in range(n_families)
    ]
    counts = [0] * n_bins
    for value in draws:
        counts[min(n_bins - 1, int(value * n_bins))] += 1
    expected = n_families / n_bins
    chi_square = sum(
        (count - expected) ** 2 / expected for count in counts
    )
    # 15 degrees of freedom: mean 15, std sqrt(30) ≈ 5.48. Accept
    # within ~5 sigma — catches systematic correlation, never flakes
    # (the draw set is fully deterministic anyway).
    assert chi_square < 15 + 5 * math.sqrt(30)

    first = [
        tuple(RngStreams(0).spawn(i).stream("network").random()
              for _ in range(100))
        for i in (0, 1)
    ]
    assert not set(first[0]) & set(first[1])

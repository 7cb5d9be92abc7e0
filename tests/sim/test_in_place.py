"""A finished process wakes its waiters in place.

A process that returns hands its value to its waiters inside the call
that resumed it, and ``Process._resume`` is a trampoline: a generator
that yields an event already processed goes on in the same loop. Before
that, each such yield nested one more ``_add_callback`` → ``_resume``
pair, so 5,000 of them died with ``RecursionError``. The depth a chain
of nested processes can reach is still bounded by the inline start
(each level's first step runs inside its parent's ``env.process``), not
by the in-place wake-up that unwinds it.
"""

import threading

from repro.sim import Environment

YIELDS = 5_000


def test_a_processed_event_yielded_5000_times():
    env = Environment()
    done = env.event()
    done.succeed(3)
    env.run()
    assert done.processed

    def proc():
        total = 0
        for _ in range(YIELDS):
            total += yield done
        return total

    process = env.process(proc())
    assert process.processed  # finished inline: nothing was scheduled
    assert process.value == 3 * YIELDS
    env.run()
    assert env.steps == 1  # only ``done`` itself


def test_5000_sequential_instant_processes():
    env = Environment()

    def instant(n):
        return n
        yield  # pragma: no cover - makes this a generator

    def proc():
        total = 0
        for n in range(YIELDS):
            total += yield env.process(instant(n))
        return total

    process = env.process(proc())
    env.run()
    assert process.value == sum(range(YIELDS))
    assert env.steps == 0


def _chain_completes(depth, leaf_waits):
    """Whether a chain of ``depth`` nested processes returns ``depth``:
    each level waits on the next; the leaf returns at once, or after a
    timeout, so that every level is woken in place from the loop."""
    env = Environment()

    def level(n):
        if n == 0:
            if leaf_waits:
                yield env.timeout(1.0)
            return 0
        value = yield env.process(level(n - 1))
        return value + 1

    try:
        root = env.process(level(depth))
        env.run()
    except RecursionError:
        return False
    return root.ok and root.value == depth


def _deepest(leaf_waits):
    """The deepest chain that completes, probed on a fresh thread so the
    caller's own stack depth does not count."""
    found = []

    def probe():
        low, high = 1, 2_000
        while low < high:
            middle = (low + high + 1) // 2
            if _chain_completes(middle, leaf_waits):
                low = middle
            else:
                high = middle - 1
        found.append(low)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return found[0]


def test_the_inline_start_bounds_the_nesting_depth():
    # A chain whose leaf returns in its first step unwinds with no
    # wake-up at all: its depth is what the inline start allows (164
    # under CPython 3.11, as before waiters were woken in place). A
    # chain whose leaf waits unwinds through one ``_resume`` frame per
    # level, woken in place, and must reach as deep.
    started = _deepest(leaf_waits=False)
    assert started >= 150
    assert _deepest(leaf_waits=True) >= started

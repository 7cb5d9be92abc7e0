"""A test-side spy on client-stack retirement.

A finished replay has retired every client stack, each after its
user's last event, so a walk over ``runner._stacks`` after ``run()``
covers nothing and passes for that reason alone. A
:class:`KeepingRunner` keeps each stack as it retires: a post-run walk
over :meth:`KeepingRunner.client_stacks` covers every device the
replay built, exactly as a walk over ``_stacks`` did when nothing
retired.
"""

from repro.harness import SimulationRunner
from repro.harness.runner import _client_cache_stores


class KeepingRunner(SimulationRunner):
    def _build(self):
        super()._build()
        #: Retired stacks, by user, in retirement order.
        self.retired = {}

    def _retire(self, user_id):
        stack = self._stacks.get(user_id)
        if stack is not None:
            self.retired[user_id] = stack
        super()._retire(user_id)

    def client_stacks(self):
        """Every stack the replay built, retired or live."""
        return {**self.retired, **self._stacks}

    def client_cache_stores(self):
        """Every device cache the replay built, by tier label."""
        return _client_cache_stores(self.client_stacks())


def private_tiers(labels):
    """The device-cache labels among ``labels``."""
    return [label for label in labels if label.startswith(("sw:", "browser:"))]

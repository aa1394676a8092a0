"""Fixture: the shared fault decisions with broken short-circuits."""


class FaultDecisions:
    def __init__(self, plan, rng):
        self.plan = plan
        self._rng = rng
        self.polluters = self.plan.sample(10, self._rng)

    def drop_gossip(self):
        return self._rng.random() < self.plan.gossip_loss_rate

    def drop_pull(self):
        p = self.plan.pull_loss_rate
        return p > 0.0 and self._rng.random() < p

    def pollutes(self, slot):
        return self.plan.decide(slot, self._rng)

    def is_polluter(self, slot):
        return self._lookup(slot, self._rng)

"""Fixture: an injector whose constructor inherits an unsafe base."""

from faults.decisions import FaultDecisions


class FaultInjector(FaultDecisions):
    def __init__(self, plan, rng):
        super().__init__(plan, rng)

"""Composable fault injection for collection simulations.

This package models the adversarial conditions the paper's robustness
story implies but never simulates: lossy links, block pollution, server
outages, and correlated churn bursts.  :class:`FaultPlan` declares what
goes wrong; :class:`FaultDecisions` makes each of its decisions once for
every engine, and :class:`FaultInjector` executes it against a running
event simulation.  A default-constructed plan is bitwise-neutral — see
``plan.py``.
"""

from repro.faults.decisions import (
    FaultDecisions,
    PollutableHolding,
    corrupt_block,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan

__all__ = [
    "FaultPlan",
    "FaultDecisions",
    "FaultInjector",
    "PollutableHolding",
    "corrupt_block",
]

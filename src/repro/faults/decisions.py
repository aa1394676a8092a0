"""Fault- and adversary-plane decisions, written once for every engine.

The event engine's injectors and the fast engine's masks extend these
classes, and the live runtime uses :class:`FaultDecisions` directly.
Nothing here schedules an event or awaits I/O: a decision reads the plan
and the substream it was handed, and returns an answer.  Every query
short-circuits on its plan knob before touching an RNG (lint rule R7
proves it for each method in :data:`repro.lint.neutrality.SURFACES`).
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, FrozenSet, List, Protocol, Tuple

from repro.coding.block import CodedBlock
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # repro.adversary imports this module
    from repro.adversary.plan import AdversaryPlan


def cohort_size(fraction: float, n: int) -> int:
    """Members a *fraction* of *n* selects: at least one, at most all."""
    return min(n, max(1, round(fraction * n)))


def sample_cohort(rng: random.Random, fraction: float, n: int) -> List[int]:
    """Draw one :func:`cohort_size` cohort of ``range(n)`` from *rng*."""
    return rng.sample(range(n), cohort_size(fraction, n))


def corrupt_block(block: CodedBlock) -> CodedBlock:
    """Mark *block* as polluted, invalidating its coefficient header.

    In RLNC mode the coefficient vector is zeroed — a detectably invalid
    header that GF(2^8) rank arithmetic can never count as innovative, so
    the server-side decoder rejects the block for free.  In abstract mode
    the ``polluted`` tag alone carries the information (the tagged-block
    approximation of the same detection).  Returns the block for chaining.
    """
    block.polluted = True
    if block.coefficients is not None:
        block.coefficients.fill(0)
    return block


class PollutableHolding(Protocol):
    """What the pollution channel needs to know about a peer's holding."""

    @property
    def polluted_count(self) -> int:
        """Number of polluted blocks currently in the holding."""
        ...


class FaultDecisions:
    """Every per-slot and per-event decision of one :class:`FaultPlan`.

    Args:
        plan: The fault configuration.
        n_slots: Number of peer slots (polluter sampling, burst sizing).
        roster_rng: Substream the polluter set is drawn from, once, here.
        event_rng: Substream for per-event draws (loss coins, bursts);
            the simulators pass their one fault stream as both RNGs.
    """

    def __init__(
        self,
        plan: FaultPlan,
        n_slots: int,
        roster_rng: random.Random,
        event_rng: random.Random,
    ) -> None:
        self.plan = plan
        self._n_slots = n_slots
        self._rng = event_rng
        self.polluters: FrozenSet[int] = self._sample_polluters(roster_rng)

    def _sample_polluters(self, rng: random.Random) -> FrozenSet[int]:
        fraction = self.plan.pollution_fraction
        if fraction <= 0.0:
            return frozenset()
        return frozenset(sample_cohort(rng, fraction, self._n_slots))

    # -- per-event queries (zero-knob cases must not touch the RNG) ----------

    def drop_gossip(self) -> bool:
        """Decide whether one in-flight gossip transfer is lost."""
        p = self.plan.gossip_loss_rate
        return p > 0.0 and self._rng.random() < p

    def drop_pull(self) -> bool:
        """Decide whether one server pull's block transfer is lost."""
        p = self.plan.pull_loss_rate
        return p > 0.0 and self._rng.random() < p

    def is_polluter(self, slot: int) -> bool:
        """True when the peer slot is a configured polluter."""
        return slot in self.polluters

    def pollutes(self, slot: int, holding: PollutableHolding) -> bool:
        """True when an emission from *holding* at *slot* is corrupted.

        A block is polluted if its emitter is a polluter slot, or if the
        holding it is re-encoded from already contains polluted blocks —
        any linear combination touching junk is junk, which is what makes
        pollution spread and why end-to-end detection matters.
        """
        if not self.polluters:
            return False
        return slot in self.polluters or holding.polluted_count > 0

    def maybe_pollute(
        self, slot: int, holding: PollutableHolding, block: CodedBlock
    ) -> bool:
        """Corrupt *block* in place when its emission is polluted.

        Returns True when the block was corrupted.  Zero-knob runs take the
        ``not self.polluters`` short-circuit inside :meth:`pollutes` and do
        no work at all.
        """
        if self.pollutes(slot, holding):
            corrupt_block(block)
            return True
        return False

    # -- pull trials and outages ---------------------------------------------

    def pull_attempts(self) -> int:
        """Blocks one pull trial may take: the first plus the re-pulls a
        polluted block earns (``pollution_repull_budget``)."""
        if self.polluters:
            return 1 + self.plan.pollution_repull_budget
        return 1

    def catchup_pulls(self, downtime: float, per_server_rate: float) -> int:
        """Immediate pulls one server issues on recovering from an outage.

        One per pull it would have issued during *downtime*, capped at
        ``catchup_limit`` (a real server rate-limits its recovery).
        """
        return min(int(downtime * per_server_rate), self.plan.catchup_limit)

    # -- correlated churn bursts ---------------------------------------------

    def burst_size(self) -> int:
        """Slots killed per burst event (at least one, at most all)."""
        return cohort_size(self.plan.burst_fraction, self._n_slots)

    def burst_slots(self) -> List[int]:
        """Slots killed by one burst event."""
        return sample_cohort(
            self._rng, self.plan.burst_fraction, self._n_slots
        )


class AdversaryDecisions:
    """The slot roles and sizing arithmetic of one :class:`AdversaryPlan`.

    The liar, free-rider and polluter slot sets are disjoint prefixes of
    one ``sample(range(n), n)`` permutation drawn from *rng* here; *rng*
    also draws the sybil cohorts.
    """

    def __init__(
        self, plan: AdversaryPlan, n_slots: int, rng: random.Random
    ) -> None:
        self.plan = plan
        self._n_slots = n_slots
        self._rng = rng
        liars, freeriders, polluters = self._sample_roles()
        #: static role slot sets, disjoint by construction.
        self.liars: FrozenSet[int] = liars
        self.freeriders: FrozenSet[int] = freeriders
        self.polluters: FrozenSet[int] = polluters

    def _sample_roles(
        self,
    ) -> Tuple[FrozenSet[int], FrozenSet[int], FrozenSet[int]]:
        plan = self.plan
        n = self._n_slots
        if plan.static_fraction <= 0.0:
            return frozenset(), frozenset(), frozenset()
        order = self._rng.sample(range(n), n)
        counts = []
        remaining = n
        for fraction in (
            plan.liar_fraction,
            plan.freerider_fraction,
            plan.polluter_fraction,
        ):
            count = 0
            if fraction > 0.0:
                count = min(remaining, cohort_size(fraction, n))
            counts.append(count)
            remaining -= count
        liar_end = counts[0]
        freerider_end = liar_end + counts[1]
        polluter_end = freerider_end + counts[2]
        return (
            frozenset(order[:liar_end]),
            frozenset(order[liar_end:freerider_end]),
            frozenset(order[freerider_end:polluter_end]),
        )

    def capture_probability(self, attractor_count: int) -> float:
        """P(one pull is captured) given *attractor_count* advertisers.

        With ``k`` advertisers each inflating its apparent buffer by factor
        ``A``, a rank-weighted target selection lands on one of them with
        probability ``A·k / (A·k + (N − k))``.
        """
        k = attractor_count
        if k <= 0:
            return 0.0
        weight = self.plan.liar_inflation * k
        honest = self._n_slots - k
        return weight / (weight + honest)

    def sybil_burst_size(self) -> int:
        """Slots converted per sybil burst (at least one, at most all)."""
        return cohort_size(self.plan.sybil_fraction, self._n_slots)

    def sybil_slots(self) -> List[int]:
        """Slots converted by one sybil burst."""
        return sample_cohort(
            self._rng, self.plan.sybil_fraction, self._n_slots
        )

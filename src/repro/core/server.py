"""Logging servers: the coupon-collector pull of Sec. 2, plus variants.

"At rate c_s, each server chooses a peer p u.a.r. from among all the peers
with non-null buffers and chooses a random segment in peer p, which then
transmits one coded block of this segment to the server."

Servers are deliberately simple: they never compare buffers with peers or
with each other, so redundant pulls happen and are charged against the
collection efficiency η (Theorem 2).  All servers pool their collected
blocks — the segment state ``j`` counts blocks collected by *the servers*
collectively — while per-server accounting records how the load spreads.

Beyond the paper's policy, the pool implements three pull-scheduling
variants (the E-ABL-SCHED ablation) that probe how much of the redundancy
cost smarter servers could claw back while staying stateless-ish:

- ``"random"`` — the paper's policy exactly (default);
- ``"round-robin"`` — sweep peer slots cyclically (skipping empty buffers)
  instead of sampling, equalizing per-peer service;
- ``"avoid-redundant"`` — resample up to ``scheduler_tries`` times when the
  drawn segment is already complete (a one-bit "done" hint per segment,
  which a real deployment gets for free from its own decode state);
- ``"greedy-completion"`` — draw ``scheduler_tries`` candidates and pull
  the incomplete one closest to completion, concentrating pulls so partial
  segments actually finish (improves goodput, not just efficiency).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.params import (
    SELECTION_PROPORTIONAL,
    SELECTION_UNIFORM,
    VALID_SELECTIONS,
)
from repro.adversary.defense import (
    OUTCOME_JUNK,
    OUTCOME_REDUNDANT,
    OUTCOME_USEFUL,
    PullSourceScorer,
)
from repro.adversary.injector import AdversaryInjector
from repro.core.peer import Peer
from repro.core.segments import SegmentRegistry, SegmentState
from repro.faults.decisions import corrupt_block
from repro.faults.injector import FaultInjector
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import (
    KIND_DROP,
    KIND_POLLUTED,
    KIND_QUARANTINE,
    Tracer,
)

#: Server pull-scheduling policies (see module docstring).
POLICY_RANDOM = "random"
POLICY_ROUND_ROBIN = "round-robin"
POLICY_AVOID_REDUNDANT = "avoid-redundant"
POLICY_GREEDY_COMPLETION = "greedy-completion"
VALID_POLICIES = (
    POLICY_RANDOM,
    POLICY_ROUND_ROBIN,
    POLICY_AVOID_REDUNDANT,
    POLICY_GREEDY_COMPLETION,
)


@dataclass
class LoggingServer:
    """Per-server pull accounting (state is pooled in the registry)."""

    server_id: int
    pulls: int = 0
    useful_pulls: int = 0
    redundant_pulls: int = 0
    idle_pulls: int = 0
    #: fault injection: pulls whose block transfer was lost in flight.
    dropped_pulls: int = 0
    #: fault injection: polluted blocks detected and discarded.
    polluted_pulls: int = 0
    #: adversary: pulls a lying advertisement redirected to an attractor.
    captured_pulls: int = 0
    #: defense: target draws rejected because the identity was quarantined.
    quarantined_pulls: int = 0

    @property
    def efficiency(self) -> float:
        """Fraction of this server's pulls that advanced some segment."""
        return self.useful_pulls / self.pulls if self.pulls else 0.0


class ServerPool:
    """The collaborating logging servers and their pull behavior.

    Collaborators are injected so the pool is testable without the full
    system: *sample_nonempty_peer* returns a uniformly random peer with a
    non-empty buffer (or None), and *rng*/*coding_rng* drive segment choice
    and RLNC re-encoding respectively.
    """

    def __init__(
        self,
        n_servers: int,
        registry: SegmentRegistry,
        metrics: MetricsCollector,
        rng: random.Random,
        coding_rng: np.random.Generator,
        sample_nonempty_peer: Callable[[], Optional[Peer]],
        rlnc_mode: bool,
        segment_selection: str = SELECTION_PROPORTIONAL,
        pull_policy: str = POLICY_RANDOM,
        scheduler_tries: int = 8,
        all_peers: Optional[Callable[[int], Peer]] = None,
        n_slots: int = 0,
        faults: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
        adversary: Optional[AdversaryInjector] = None,
        scorer: Optional[PullSourceScorer] = None,
        discounting: bool = False,
        on_quarantine: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if n_servers < 1:
            raise ValueError(f"n_servers must be >= 1, got {n_servers}")
        if segment_selection not in VALID_SELECTIONS:
            raise ValueError(
                f"segment_selection must be one of {VALID_SELECTIONS}, "
                f"got {segment_selection!r}"
            )
        if pull_policy not in VALID_POLICIES:
            raise ValueError(
                f"pull_policy must be one of {VALID_POLICIES}, "
                f"got {pull_policy!r}"
            )
        if scheduler_tries < 1:
            raise ValueError(
                f"scheduler_tries must be >= 1, got {scheduler_tries}"
            )
        if pull_policy == POLICY_ROUND_ROBIN and (all_peers is None or n_slots < 1):
            raise ValueError(
                "round-robin policy needs the all_peers accessor and n_slots"
            )
        if adversary is not None and all_peers is None:
            raise ValueError(
                "an adversary injector needs the all_peers accessor "
                "(captured pulls must be redirected to attractor slots)"
            )
        self.servers: List[LoggingServer] = [
            LoggingServer(server_id=i) for i in range(n_servers)
        ]
        self._registry = registry
        self._metrics = metrics
        self._rng = rng
        self._coding_rng = coding_rng
        self._sample_nonempty_peer = sample_nonempty_peer
        self._rlnc_mode = rlnc_mode
        self._uniform_selection = segment_selection == SELECTION_UNIFORM
        self._policy = pull_policy
        self._scheduler_tries = scheduler_tries
        self._all_peers = all_peers
        self._n_slots = n_slots
        self._rr_cursor = 0
        #: optional FaultInjector (transfer loss + pollution detection) and
        #: Tracer for the fault-channel events.
        self._faults = faults
        self._tracer = tracer
        #: optional AdversaryInjector (liar capture, junk service) and
        #: PullSourceScorer defense state, plus the defense toggles.
        self._adversary = adversary
        self._scorer = scorer
        self._discounting = discounting and scorer is not None
        self._on_quarantine = on_quarantine

    # -- candidate selection ---------------------------------------------------

    def _draw_segment(self, peer: Peer) -> int:
        if self._uniform_selection:
            return peer.sample_segment(self._rng)
        return peer.sample_segment_proportional(self._rng)

    def _draw_candidate(self) -> Optional[Tuple[Peer, SegmentState]]:
        """One (peer, segment state) draw under the paper's random policy."""
        peer = self._sample_nonempty_peer()
        if peer is None:
            return None
        return peer, self._registry.get(self._draw_segment(peer))

    def _draw_round_robin(self) -> Optional[Tuple[Peer, SegmentState]]:
        """Next non-empty peer in slot order (at most one full sweep)."""
        for _ in range(self._n_slots):
            peer = self._all_peers(self._rr_cursor)
            self._rr_cursor = (self._rr_cursor + 1) % self._n_slots
            if not peer.is_empty:
                return peer, self._registry.get(self._draw_segment(peer))
        return None

    def _select(self) -> Optional[Tuple[Peer, SegmentState]]:
        """Pick the (peer, segment) to pull from, according to the policy."""
        if self._policy == POLICY_ROUND_ROBIN:
            return self._draw_round_robin()
        if self._policy == POLICY_AVOID_REDUNDANT:
            candidate = None
            for _ in range(self._scheduler_tries):
                candidate = self._draw_candidate()
                if candidate is None or not candidate[1].is_complete:
                    return candidate
            return candidate  # every try was redundant: pay the redundant pull
        if self._policy == POLICY_GREEDY_COMPLETION:
            best: Optional[Tuple[Peer, SegmentState]] = None
            for _ in range(self._scheduler_tries):
                candidate = self._draw_candidate()
                if candidate is None:
                    break
                state: SegmentState = candidate[1]
                if state.is_complete:
                    if best is None:
                        best = candidate
                    continue
                if (
                    best is None
                    or best[1].is_complete
                    or state.collected > best[1].collected
                ):
                    best = candidate
            return best
        return self._draw_candidate()

    def pull(self, server_index: int, now: float) -> None:
        """Execute one pull trial for server *server_index* at time *now*.

        Under fault injection the trial may additionally (a) lose the block
        transfer in flight (``pull_loss_rate``), or (b) receive a polluted
        block, which the server detects and discards — in RLNC mode through
        the actual GF(2^8) rank arithmetic (a corrupted header is provably
        non-innovative), in abstract mode through the pollution tag — and
        then retries up to ``pollution_repull_budget`` more draws within the
        same trial.  Neither path can corrupt the pooled decoder state.
        """
        server = self.servers[server_index]
        server.pulls += 1
        in_window = self._metrics.in_window
        self._metrics.pulls.increment(in_window)

        candidate = self._select()
        if candidate is None:
            # Nothing buffered anywhere: the trial is spent but collects
            # nothing (possible during drain-out or at tiny lambda).
            server.idle_pulls += 1
            self._metrics.idle_pulls.increment(in_window)
            return
        peer, state = candidate

        adversary = self._adversary
        if adversary is not None:
            captured = adversary.capture_pull()
            if captured is not None:
                # A lying advertisement won the target selection.  Under
                # advertisement discounting the capture only survives with
                # probability equal to the attractor's trust score.
                cap_peer = self._all_peers(captured)
                trust = 1.0
                if self._discounting:
                    trust = self._scorer.trust(
                        cap_peer.slot, cap_peer.generation
                    )
                if adversary.accept_capture(trust):
                    server.captured_pulls += 1
                    self._metrics.pulls_captured.increment(in_window)
                    if cap_peer.is_empty:
                        # The attractor has nothing buffered: the pull is
                        # wasted outright (bait with no switch).
                        server.idle_pulls += 1
                        self._metrics.idle_pulls.increment(in_window)
                        return
                    peer = cap_peer
                    state = self._registry.get(self._draw_segment(peer))

        scorer = self._scorer
        if scorer is not None and scorer.quarantine_enabled:
            # Pull-source scoring: re-draw while the selected identity is
            # quarantined, up to the scheduler's retry budget.  An exhausted
            # budget pulls anyway — quarantine demotes, it never starves the
            # servers (liveness under fraction=1.0 adversaries).
            tries = self._scheduler_tries
            while not scorer.admit(peer.slot, peer.generation):
                server.quarantined_pulls += 1
                self._metrics.pulls_quarantine_rejected.increment(in_window)
                tries -= 1
                if tries <= 0:
                    break
                candidate = self._select()
                if candidate is None:
                    server.idle_pulls += 1
                    self._metrics.idle_pulls.increment(in_window)
                    return
                peer, state = candidate

        if state.is_complete:
            # "servers may collect redundant blocks of a segment that is
            # already decodable" — charged, not prevented.
            server.redundant_pulls += 1
            self._metrics.redundant_pulls.increment(in_window)
            self._score_outcome(peer, OUTCOME_REDUNDANT, now)
            return

        faults = self._faults
        if faults is not None and faults.drop_pull():
            server.dropped_pulls += 1
            self._metrics.transfers_dropped.increment(in_window)
            if self._tracer is not None:
                self._tracer.record(
                    now,
                    KIND_DROP,
                    peer=peer.slot,
                    segment=state.segment_id,
                    pull=1.0,
                )
            return

        attempts = 1 if faults is None else faults.pull_attempts()
        while True:
            attempts -= 1
            holding = peer.holdings[state.segment_id]
            adv_junk = adversary is not None and adversary.serves_junk(
                peer.slot, peer.generation
            )
            polluted = adv_junk or (
                faults is not None and faults.pollutes(peer.slot, holding)
            )
            if adv_junk:
                self._metrics.junk_blocks_served.increment(in_window)
            if self._rlnc_mode:
                block = holding.make_coded_block(self._coding_rng, now)
                if polluted:
                    block = corrupt_block(block)
                # The corrupted block still goes through the real decoder:
                # detection must come from rank arithmetic, not from trust
                # in the tag.  A zeroed header can never be innovative.
                innovative = self._registry.on_server_block(state, now, block)
                if polluted and innovative:
                    raise AssertionError(
                        "polluted block counted innovative by the decoder"
                    )
            elif polluted:
                # Abstract mode: the tag *is* the detection (tagged-block
                # approximation); the block never reaches the server state.
                innovative = False
            else:
                innovative = self._registry.on_server_block(state, now)

            if polluted:
                server.polluted_pulls += 1
                self._metrics.blocks_rejected_polluted.increment(in_window)
                self._score_outcome(peer, OUTCOME_JUNK, now)
                if self._tracer is not None:
                    self._tracer.record(
                        now,
                        KIND_POLLUTED,
                        peer=peer.slot,
                        segment=state.segment_id,
                    )
                if attempts <= 0:
                    # Re-pull budget spent: the trial collected nothing.
                    return
                candidate = self._select()
                if candidate is None:
                    server.idle_pulls += 1
                    self._metrics.idle_pulls.increment(in_window)
                    return
                peer, state = candidate
                if state.is_complete:
                    server.redundant_pulls += 1
                    self._metrics.redundant_pulls.increment(in_window)
                    self._score_outcome(peer, OUTCOME_REDUNDANT, now)
                    return
                continue

            if innovative:
                server.useful_pulls += 1
                self._metrics.useful_pulls.increment(in_window)
                self._score_outcome(peer, OUTCOME_USEFUL, now)
            else:
                server.redundant_pulls += 1
                self._metrics.redundant_pulls.increment(in_window)
                self._score_outcome(peer, OUTCOME_REDUNDANT, now)
            return

    def _score_outcome(self, peer: Peer, outcome: str, now: float) -> None:
        """Fold one pull outcome into the defense scorer (if enabled)."""
        scorer = self._scorer
        if scorer is None:
            return
        if scorer.record(peer.slot, peer.generation, outcome):
            # This observation newly quarantined the identity.
            self._metrics.slots_quarantined.increment(self._metrics.in_window)
            if self._tracer is not None:
                self._tracer.record(now, KIND_QUARANTINE, peer=peer.slot)
            if self._on_quarantine is not None:
                self._on_quarantine(peer.slot, peer.generation)

    # -- diagnostics -----------------------------------------------------------

    def total_pulls(self) -> int:
        """Aggregate pull trials across all servers."""
        return sum(server.pulls for server in self.servers)

    def pool_efficiency(self) -> float:
        """Aggregate useful/total ratio across all servers."""
        pulls = self.total_pulls()
        if not pulls:
            return 0.0
        return sum(server.useful_pulls for server in self.servers) / pulls

    def load_balance(self) -> float:
        """Max/mean pull ratio across servers (1.0 = perfectly even)."""
        pulls = [server.pulls for server in self.servers]
        total = sum(pulls)
        if not total:
            return 1.0
        mean = total / len(pulls)
        return max(pulls) / mean

"""Runtime fault injection: the machinery behind a :class:`FaultPlan`.

The :class:`FaultInjector` is the single object the collection system
consults on its hot paths (gossip delivery, server pulls) and the owner of
the fault *event* clocks (outage onsets/recoveries, correlated churn
bursts).  Design rules:

- **Own randomness.**  The injector draws only from its dedicated
  ``"faults"`` RNG substream, so enabling a fault channel never perturbs
  the draws of injection, gossip, server, TTL or churn clocks.
- **Bitwise neutrality at zero.**  Every query short-circuits before
  touching the RNG when its knob is off, and ``start()`` schedules nothing
  for a null plan — a system built with ``FaultPlan()`` replays the exact
  event sequence of a system built with no plan at all.
- **Hooks, not references.**  The injector manipulates the system through
  three injected callbacks (pause servers, resume servers, kill slots), so
  it is testable standalone and the system stays the owner of its state.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence

from repro.faults.decisions import FaultDecisions, sample_cohort
from repro.faults.plan import PROC_KILL_PEERS, FaultPlan
from repro.sim.engine import EventHandle, Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import exponential
from repro.sim.trace import KIND_OUTAGE, KIND_RECOVER, Tracer


class FaultInjector(FaultDecisions):
    """Executes one :class:`FaultPlan` against a running simulation.

    The decisions themselves are inherited from :class:`FaultDecisions`;
    *rng* serves as both its roster and its event stream.

    Args:
        plan: The fault configuration.
        sim: The simulation engine (fault events are scheduled on it).
        rng: Dedicated ``random.Random`` substream for all fault draws.
        n_slots: Number of peer slots (polluter sampling, burst sizing).
        metrics: Collector for degradation accounting (``servers_down``).
        tracer: Optional tracer for outage/recovery events.
    """

    def __init__(
        self,
        plan: FaultPlan,
        sim: Simulator,
        rng: random.Random,
        n_slots: int,
        metrics: MetricsCollector,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(plan, n_slots, rng, rng)
        self._sim = sim
        self._metrics = metrics
        self._tracer = tracer
        self._down = False
        self._down_since = 0.0
        self._handles: List[EventHandle] = []
        self._started = False
        # hooks bound by the system before start()
        self._pause_servers: Optional[Callable[[], None]] = None
        self._resume_servers: Optional[Callable[[float], None]] = None
        self._kill_slots: Optional[Callable[[Sequence[int]], None]] = None
        #: lifetime fault-event tallies (diagnostics; metrics hold the
        #: windowed counterparts)
        self.outages_started = 0
        self.bursts_fired = 0

    # -- lifecycle -------------------------------------------------------------

    def bind(
        self,
        pause_servers: Callable[[], None],
        resume_servers: Callable[[float], None],
        kill_slots: Callable[[Sequence[int]], None],
    ) -> None:
        """Attach the system hooks the fault events act through."""
        self._pause_servers = pause_servers
        self._resume_servers = resume_servers
        self._kill_slots = kill_slots

    def start(self) -> None:
        """Arm the outage and burst clocks (no-op channels schedule nothing)."""
        if self._started:
            raise RuntimeError("fault injector already started")
        self._started = True
        plan = self.plan
        if plan.has_outages and self._pause_servers is None:
            raise RuntimeError("bind() must be called before start()")
        if plan.burst_rate > 0 and self._kill_slots is None:
            raise RuntimeError("bind() must be called before start()")
        if plan.has_process_faults and any(
            kind == PROC_KILL_PEERS for kind, *_ in plan.process_faults
        ) and self._kill_slots is None:
            raise RuntimeError("bind() must be called before start()")
        for start, end in plan.outage_windows:
            self._handles.append(
                self._sim.schedule_at(start, self._begin_outage)
            )
            self._handles.append(self._sim.schedule_at(end, self._end_outage))
        # Server process faults are downtime windows of the supervised
        # restart latency (kill) or the SIGSTOP hold (stop); a peer-process
        # kill is a scheduled correlated burst.  stop-peers has no
        # simulator analogue (a frozen peer still holds TCP state) and is
        # deliberately a no-op here.
        for start, end in plan.server_process_windows:
            self._handles.append(
                self._sim.schedule_at(start, self._begin_outage)
            )
            self._handles.append(self._sim.schedule_at(end, self._end_outage))
        for kind, at, _duration, fraction in plan.process_faults:
            if kind == PROC_KILL_PEERS:
                self._handles.append(
                    self._sim.schedule_at(
                        at, self._make_process_burst(fraction)
                    )
                )
        if plan.outage_rate > 0:
            self._arm_next_outage()
        if plan.burst_rate > 0:
            self._arm_next_burst()

    def stop(self) -> None:
        """Cancel every pending fault event (teardown for repeated runs)."""
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()

    @property
    def servers_down(self) -> bool:
        """True while an outage window is in effect."""
        return self._down

    # -- outage machinery --------------------------------------------------------

    def _arm_next_outage(self) -> None:
        gap = exponential(self._rng, self.plan.outage_rate)
        self._handles.append(self._sim.schedule(gap, self._begin_outage))

    def _begin_outage(self) -> None:
        if self._down:
            return
        now = self._sim.now
        self._down = True
        self._down_since = now
        self.outages_started += 1
        self._metrics.servers_down.update(now, 1.0)
        if self._tracer is not None:
            self._tracer.record(now, KIND_OUTAGE)
        assert self._pause_servers is not None  # start() enforces bind()
        self._pause_servers()
        if self.plan.outage_rate > 0:
            self._handles.append(
                self._sim.schedule(self.plan.outage_duration, self._end_outage)
            )

    def _end_outage(self) -> None:
        if not self._down:
            return
        now = self._sim.now
        self._down = False
        elapsed = now - self._down_since
        self._metrics.servers_down.update(now, 0.0)
        if self._tracer is not None:
            self._tracer.record(now, KIND_RECOVER, downtime=elapsed)
        assert self._resume_servers is not None  # start() enforces bind()
        self._resume_servers(elapsed)
        if self.plan.outage_rate > 0:
            self._arm_next_outage()

    # -- correlated churn bursts ---------------------------------------------------

    def _arm_next_burst(self) -> None:
        gap = exponential(self._rng, self.plan.burst_rate)
        self._handles.append(self._sim.schedule(gap, self._fire_burst))

    def _fire_burst(self) -> None:
        slots = self.burst_slots()
        self.bursts_fired += 1
        assert self._kill_slots is not None  # start() enforces bind()
        self._kill_slots(slots)
        self._arm_next_burst()

    # -- process faults ----------------------------------------------------------

    def _make_process_burst(self, fraction: float) -> Callable[[], None]:
        """One scheduled kill-peers event as a correlated departure burst."""

        def fire() -> None:
            slots = sample_cohort(self._rng, fraction, self._n_slots)
            self.bursts_fired += 1
            assert self._kill_slots is not None  # start() enforces bind()
            self._kill_slots(slots)

        return fire

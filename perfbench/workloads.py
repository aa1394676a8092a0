"""The four fixed-work workloads and their output checks.

Every workload is a fresh system built from ``Parameters`` and the seed
alone.  A run sets the system up ``SETUP_REPS`` times (construction plus
simulated warm-up; for the live swarm, peer start and registration) and
reports the median as ``setup_s``, then measures in chunks for at least
``--seconds`` of wall time.

The three simulators run a fixed amount of simulated work first
(``fixed`` units after warm-up): the report at that point is what the
output checks and the SHA-256 digest cover, so a given seed always
checks and digests the same run.  Further chunks only add timing samples.
The live swarm is an open loop driven by Poisson schedules against the
wall clock; its window is ``--seconds`` long.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.analysis.validation import validate_report
from repro.core.params import ENGINE_FAST, MODE_RLNC, Parameters
from repro.core.system import CollectionSystem
from repro.fastsim import FastCollectionSystem
from repro.fastsim.engine import TauLeapStepper
from repro.live.harness import run_swarm
from repro.live.server import LiveLoggingServer
from repro.sim.metrics import MetricsReport

import layers
from spans import Patcher, Snapshot, Tracer

#: Set-ups per run; ``setup_s`` is their median.  A live set-up takes
#: ~0.1 s, so the live run repeats it more to steady the median.
SETUP_REPS = 3
LIVE_SETUP_REPS = 7

#: Fig. 3 middle operating point (benchmarks/test_bench_fastsim.py).
FIG3_RATES = dict(
    arrival_rate=20.0,
    gossip_rate=10.0,
    deletion_rate=1.0,
    normalized_capacity=8.0,
    n_servers=4,
)

#: E-LIVE operating point.  At time_scale 2.0 the loop is ~65% busy and
#: serves ~98.7% of offered pulls; at 4.0 only ~89% (the knee lies between).
LIVE_PARAMS = Parameters(
    n_peers=200,
    arrival_rate=0.25,
    gossip_rate=1.0,
    deletion_rate=0.25,
    normalized_capacity=1.0,
    segment_size=4,
    mode=MODE_RLNC,
    payload_bytes=64,
)
LIVE_TIME_SCALE = 2.0
#: Simulated warm-up before MARK: 2.5 mean block lifetimes (1/gamma = 4).
LIVE_WARMUP = 10.0


@dataclass
class Check:
    """One output check: *attempted* operations, *failed* of them."""

    name: str
    attempted: int
    failed: int
    detail: str = ""


@dataclass
class Phase:
    """Everything one measured phase produced."""

    setup_s: List[float]
    #: the timed window: wall seconds, process CPU seconds, simulated units.
    wall_s: float
    cpu_s: float
    sim_units: float
    served_fraction: float
    checks: List[Check]
    digest: Optional[str] = None
    #: workload-specific values the per-layer metrics read.
    extra: Dict[str, float] = field(default_factory=dict)
    #: traced phases only: the window's span totals.
    ledger: Optional[Snapshot] = None


def offered_rate(params: Parameters) -> float:
    """Injection + gossip + pull fires per simulated unit the rates offer."""
    n = params.n_peers
    return (
        n * params.segment_arrival_rate
        + n * params.gossip_rate
        + params.n_servers * params.per_server_rate
    )


def report_digest(report: MetricsReport) -> str:
    """SHA-256 of the report dict (it holds no wall-clock field)."""
    blob = json.dumps(report.as_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def validation_checks(report: MetricsReport, params: Parameters) -> List[Check]:
    """Theorems 1, 2 and 4 at ``validate_report``'s default tolerances."""
    result = validate_report(report, params)
    if not result.applicable:
        return [Check("validate_report", 1, 1, str(result.reason))]
    return [
        Check(f"validate:{name}", 1, 0 if check.passed else 1, str(check))
        for name, check in result.checks.items()
    ]


def invariant_check(system: Any) -> Check:
    """The system's own invariant audit."""
    try:
        system.consistency_check()
    except AssertionError as error:
        return Check("consistency_check", 1, 1, str(error))
    return Check("consistency_check", 1, 0)


# -- simulators ----------------------------------------------------------------


class EventRun:
    """A :class:`CollectionSystem` (abstract or RLNC mode) under measurement."""

    def __init__(self, params: Parameters, seed: int) -> None:
        self.params = params
        self.system = CollectionSystem(params, seed=seed)
        # Records each segment's source rows; draws no extra randomness.
        self.originals = (
            self.system.record_payloads() if params.mode == MODE_RLNC else None
        )
        self._perf0 = self.system.engine_perf()

    def advance(self, units: float) -> None:
        self.system.run_until(self.system.now + units)

    def open_window(self) -> None:
        self.system.metrics.begin_window(self.system.now)
        self._perf0 = self.system.engine_perf()

    def report(self) -> MetricsReport:
        return self.system.metrics.report(
            self.system.now, engine=self.system.engine_perf()
        )

    def fires(self) -> int:
        """Injection, gossip and pull fires in the window: every other
        engine event is a TTL expiry, and without churn each one expires
        its block."""
        events = self.system.engine_perf().events_fired - self._perf0.events_fired
        return events - self.system.metrics.blocks_expired.window

    def engine_counts(self) -> Dict[str, float]:
        now = self.system.engine_perf()
        return {
            "events_fired": now.events_fired - self._perf0.events_fired,
            "events_cancelled": now.events_cancelled - self._perf0.events_cancelled,
            "heap_compactions": now.heap_compactions - self._perf0.heap_compactions,
            "pending": now.pending_live,
        }

    def checks(self, report: MetricsReport) -> List[Check]:
        checks = [invariant_check(self.system)]
        if self.originals is None:
            return checks + validation_checks(report, self.params)
        # RLNC: every completed segment must decode to its source rows.
        # No theory check: measured throughput sits ~20% under Theorem 2,
        # the known RLNC gap (results/ablation-coding.json).
        collected = self.system.collected_data
        wrong = [
            segment_id
            for segment_id, (_, rows) in collected.items()
            if not np.array_equal(rows, self.originals[segment_id])
        ]
        checks.append(
            Check("decode", len(collected), len(wrong), f"mismatched {wrong[:5]}")
        )
        if not collected:
            checks.append(Check("decode:any", 1, 1, "no segment completed"))
        return checks


class FastRun:
    """A :class:`FastCollectionSystem` driven by its tau-leap stepper."""

    def __init__(self, params: Parameters, seed: int) -> None:
        self.params = params
        self.system = FastCollectionSystem(params, seed=seed)
        self.stepper = TauLeapStepper(self.system, params.tau)
        self._fires = 0
        # Count the injection, gossip and pull channel events: one add per
        # kernel call, a few per tau step.
        for kernel in ("kernel_inject", "kernel_gossip", "kernel_pull"):
            setattr(self.system, kernel, self._counting(getattr(self.system, kernel)))

    def _counting(self, kernel: Callable[[int, float, float], None]) -> Callable[..., None]:
        def counted(count: int, t0: float, t1: float) -> None:
            self._fires += count
            kernel(count, t0, t1)
        return counted

    def advance(self, units: float) -> None:
        self.stepper.run_until(self.system.now + units)

    def open_window(self) -> None:
        # As FastCollectionSystem.run does between warm-up and window.
        self.system.push_averages(self.system.now, segments=True)
        self.system.metrics.begin_window(self.system.now)
        self._fires = 0

    def report(self) -> MetricsReport:
        self.system.push_averages(self.system.now, segments=True)
        return self.system.report()

    def fires(self) -> int:
        return self._fires

    def engine_counts(self) -> Dict[str, float]:
        return {}

    def checks(self, report: MetricsReport) -> List[Check]:
        return [invariant_check(self.system)] + validation_checks(report, self.params)


@dataclass(frozen=True)
class SimSpec:
    """One simulator workload: how to build it and how much to run."""

    name: str
    params: Parameters
    make: Callable[[Parameters, int], Any]
    #: simulated units of warm-up inside each set-up.
    warmup: float
    #: simulated units the checks and the digest cover.
    fixed: float
    #: simulated units per timed chunk.
    chunk: float
    instrument: Callable[[Patcher, Tracer], None]


SIM_WORKLOADS = {
    spec.name: spec
    for spec in (
        SimSpec(
            "event-abstract",
            Parameters(n_peers=1000, segment_size=5, **FIG3_RATES),
            EventRun, warmup=3.0, fixed=4.0, chunk=1.0,
            instrument=layers.instrument_event_system,
        ),
        SimSpec(
            "event-rlnc",
            Parameters(
                n_peers=200, segment_size=8, mode=MODE_RLNC, payload_bytes=64,
                **FIG3_RATES,
            ),
            EventRun, warmup=3.0, fixed=4.0, chunk=1.0,
            instrument=layers.instrument_event_system,
        ),
        SimSpec(
            "fastsim-100k",
            # 4 units of warm-up: after 1 unit N=10^5 still fails
            # validate_report (occupancy ~15% low).
            Parameters(
                n_peers=100_000, segment_size=5, engine=ENGINE_FAST, tau=0.05,
                **FIG3_RATES,
            ),
            FastRun, warmup=4.0, fixed=3.0, chunk=1.0,
            instrument=layers.instrument_fastsim,
        ),
    )
}


def measure_sim(
    spec: SimSpec,
    seed: int,
    seconds: float,
    reps: int,
    tracer: Optional[Tracer] = None,
) -> Phase:
    """Set up *reps* times, then run timed chunks of the last set-up."""
    setup: List[float] = []
    run = None
    for _ in range(reps):
        # Free the previous set-up first so peak RSS reflects one system.
        run = None
        gc.collect()
        started = perf_counter()
        run = spec.make(spec.params, seed)
        run.advance(spec.warmup)
        setup.append(perf_counter() - started)
    assert run is not None
    run.open_window()
    if tracer is not None:
        tracer.reset()
    fixed_chunks = round(spec.fixed / spec.chunk)
    chunks = 0
    wall = cpu = 0.0
    report = None
    extra: Dict[str, float] = {}
    ledger = None
    while chunks < fixed_chunks or wall < seconds:
        wall0 = perf_counter()
        cpu0 = process_time()
        run.advance(spec.chunk)
        wall += perf_counter() - wall0
        cpu += process_time() - cpu0
        chunks += 1
        if chunks == fixed_chunks:
            # Everything the checks and the per-layer metrics read covers
            # exactly the fixed work, so counts repeat exactly per seed.
            report = run.report()
            extra = {
                "fixed_wall_s": wall,
                "pulls": report.pulls,
                "useful_pulls": report.useful_pulls,
                "idle_pulls": report.idle_pulls,
            }
            extra.update(run.engine_counts())
            if tracer is not None:
                ledger = tracer.snapshot()
    assert report is not None
    phase = Phase(
        setup_s=setup,
        wall_s=wall,
        cpu_s=cpu,
        sim_units=chunks * spec.chunk,
        served_fraction=run.fires() / (offered_rate(spec.params) * chunks * spec.chunk),
        checks=[],
        digest=report_digest(report),
        extra=extra,
        ledger=ledger,
    )
    # Checks run after the timed window, outside the ledger.
    phase.checks = run.checks(report)
    return phase


# -- live swarm ------------------------------------------------------------------


class _SetupDone(Exception):
    """Ends a set-up-only swarm once every peer has registered."""


class LiveWindow:
    """Hooks on ``run_swarm``'s phases: set-up end, MARK and STOP.

    Installed on :class:`LiveLoggingServer` for the duration of a phase.
    MARK opens the window: fire counting starts and, when traced, a
    loop-lag probe runs until STOP.
    """

    def __init__(self, probe: layers.ScheduleProbe, tracer: Optional[Tracer]) -> None:
        self.probe = probe
        self.tracer = tracer
        self.setup_only = False
        self.started = 0.0
        self.setup_s: List[float] = []
        #: the window: wall seconds, process CPU seconds, simulated units.
        self.wall_s = self.cpu_s = self.sim_units = 0.0
        self.ledger: Optional[Snapshot] = None
        self._opened = (0.0, 0.0, 0.0)
        self._lag_probe: Optional["asyncio.Task[None]"] = None

    def install(self, patcher: Patcher) -> None:
        window = self

        def after_join(fn: Callable[..., Any]) -> Callable[..., Any]:
            async def wait_for_peers(server: Any, *args: Any, **kwargs: Any) -> None:
                await fn(server, *args, **kwargs)
                window.setup_s.append(perf_counter() - window.started)
                if window.setup_only:
                    raise _SetupDone()
            return wait_for_peers

        def after_mark(fn: Callable[..., Any]) -> Callable[..., Any]:
            async def mark(server: Any) -> None:
                await fn(server)
                window.open(server.clock)
            return mark

        def before_stop(fn: Callable[..., Any]) -> Callable[..., Any]:
            async def stop_protocol(server: Any) -> None:
                await window.close(server.clock)
                await fn(server)
            return stop_protocol

        patcher.wrap(LiveLoggingServer, "wait_for_peers", after_join)
        patcher.wrap(LiveLoggingServer, "mark", after_mark)
        patcher.wrap(LiveLoggingServer, "stop_protocol", before_stop)

    def open(self, clock: Any) -> None:
        self.probe.clock = clock
        self.probe.fires = 0
        self.probe.open = True
        if self.tracer is not None:
            self.tracer.reset()
            self._lag_probe = asyncio.create_task(layers.loop_lag_probe(self.tracer))
        self._opened = (perf_counter(), process_time(), clock.now())

    async def close(self, clock: Any) -> None:
        wall, cpu, sim = self._opened
        self.wall_s = perf_counter() - wall
        self.cpu_s = process_time() - cpu
        self.sim_units = clock.now() - sim
        self.probe.open = False
        if self.tracer is not None:
            self.ledger = self.tracer.snapshot()
        if self._lag_probe is not None:
            self._lag_probe.cancel()
            await asyncio.gather(self._lag_probe, return_exceptions=True)
            self._lag_probe = None

    async def session(self, seed: int, duration: float) -> Optional[Dict[str, Any]]:
        self.started = perf_counter()
        try:
            return await run_swarm(
                LIVE_PARAMS, seed, LIVE_WARMUP, duration,
                time_scale=LIVE_TIME_SCALE,
            )
        except _SetupDone:
            return None


def measure_live(
    seed: int, seconds: float, reps: int, tracer: Optional[Tracer] = None
) -> Phase:
    """*reps* - 1 set-up-only swarms, then one measured swarm session."""
    probe = layers.ScheduleProbe(tracer)
    window = LiveWindow(probe, tracer)
    with Patcher() as patcher:
        probe.install(patcher)
        window.install(patcher)
        if tracer is not None:
            layers.instrument_live(patcher, tracer)
        window.setup_only = True
        for _ in range(reps - 1):
            asyncio.run(window.session(seed, 1.0))
        window.setup_only = False
        report = asyncio.run(window.session(seed, seconds * LIVE_TIME_SCALE))
    assert report is not None
    verified = int(report["hash_verified"])
    failures = int(report["hash_failures"])
    checks = [Check("hash_verify", verified + failures, failures)]
    if verified == 0:
        checks.append(Check("hash_verified>0", 1, 1, "no segment verified"))
    return Phase(
        setup_s=window.setup_s,
        wall_s=window.wall_s,
        cpu_s=window.cpu_s,
        sim_units=window.sim_units,
        served_fraction=probe.fires / (offered_rate(LIVE_PARAMS) * window.sim_units),
        checks=checks,
        extra={
            "pulls": report["pulls"],
            "pull_empty_races": report["pull_empty_races"],
        },
        ledger=window.ledger,
    )

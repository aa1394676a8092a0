"""Per-layer instrumentation for the traced run.

Each ``instrument_*`` function wraps the public entry points of one
substrate's layers in spans (see :mod:`spans`), from outside the program:
class attributes for methods, the caller's module binding for functions
imported by name.  Nothing under ``src/`` changes; the wrappers draw no
randomness and keep every call's arguments and result, so a traced run
computes the same report as an untraced one.  Layer names are module
names; the ledger and BENCHMARK.json cite them.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.coding import gf256, linalg, rlnc
from repro.core import gossip, peer, segments, server
from repro.fastsim import state as fast_state
from repro.fastsim import system as fast_system
from repro.fastsim.engine import TauLeapStepper
from repro.live import framing, transport, wire
from repro.live.clock import PoissonSchedule
from repro.sim import engine, metrics

from spans import Patcher, Tracer, timed

#: The array kernels of the GF(256) layer.  Scalar helpers (``mul``,
#: ``inv``) and ``as_vector`` are not kernels and are not timed.
GF256_KERNELS = (
    "vec_add", "vec_scale", "vec_addmul", "vec_addmul_rows",
    "rows_addmul", "combine_rows", "vec_mul", "mat_vec", "mat_mul",
)


def _array_bytes(result: Any, args: Tuple[Any, ...]) -> int:
    """Operand plus result bytes, computed from array shapes."""
    total = sum(a.nbytes for a in args if isinstance(a, np.ndarray))
    if isinstance(result, np.ndarray):
        total += result.nbytes
    return int(total)


def _instrument_gf256(patcher: Patcher, tracer: Tracer) -> None:
    """One ``coding.gf256`` span per outermost kernel call.

    Kernels call each other (``combine_rows`` -> ``vec_addmul_rows``), so
    nested calls run untimed: calls and computed bytes count each
    top-level kernel invocation once.
    """
    idx = tracer.index("coding.gf256")
    depth = [0]

    def make(fn: Callable[..., Any]) -> Callable[..., Any]:
        def kernel(*args: Any, **kwargs: Any) -> Any:
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            tracer.enter(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
                depth[0] = 0
            tracer.count("coding.gf256.bytes", _array_bytes(result, args))
            return result
        return kernel

    for name in GF256_KERNELS:
        patcher.wrap(gf256, name, make)


def instrument_coding(patcher: Patcher, tracer: Tracer) -> None:
    """``coding.rlnc``, ``coding.linalg`` and ``coding.gf256``."""
    # core.peer binds recode and rank by name; SegmentDecoder.offer and
    # IncrementalDecoder.add are called on instances.
    patcher.wrap(peer, "recode", lambda fn: timed(tracer, "coding.rlnc.recode", fn))
    patcher.wrap(
        peer, "matrix_rank", lambda fn: timed(tracer, "coding.linalg.rank", fn)
    )

    def innovative(result: Any, args: Tuple[Any, ...]) -> None:
        if result:
            tracer.count("coding.rlnc.offer.innovative")

    patcher.wrap(
        rlnc.SegmentDecoder, "offer",
        lambda fn: timed(tracer, "coding.rlnc.offer", fn, innovative),
    )
    patcher.wrap(
        linalg.IncrementalDecoder, "add",
        lambda fn: timed(tracer, "coding.linalg.add", fn),
    )
    _instrument_gf256(patcher, tracer)


def instrument_core(patcher: Patcher, tracer: Tracer) -> None:
    """``core.peer``, ``core.segments``, ``core.gossip``, ``core.server``."""
    for method in ("add_block", "remove_block"):
        patcher.wrap(
            peer.Peer, method,
            lambda fn, m=method: timed(tracer, f"core.peer.{m}", fn),
        )
    patcher.wrap(
        peer.SegmentHolding, "make_coded_block",
        lambda fn: timed(tracer, "core.peer.make_coded_block", fn),
    )
    # The registry's state transitions; get()/__contains__ are dict
    # lookups whose span would cost more than the call.
    for method in ("create", "on_block_added", "on_block_removed", "on_server_block"):
        patcher.wrap(
            segments.SegmentRegistry, method,
            lambda fn: timed(tracer, "core.segments", fn),
        )

    def transferred(result: Any, args: Tuple[Any, ...]) -> None:
        if result:
            tracer.count("core.gossip.tick.transferred")

    patcher.wrap(
        gossip.GossipProtocol, "tick",
        lambda fn: timed(tracer, "core.gossip.tick", fn, transferred),
    )
    patcher.wrap(
        server.ServerPool, "pull",
        lambda fn: timed(tracer, "core.server.pull", fn),
    )


def instrument_metrics(patcher: Patcher, tracer: Tracer) -> None:
    """``sim.metrics``: the windowed counters and time averages."""
    for owner, method in (
        (metrics.WindowedCounter, "increment"),
        (metrics.WindowedAverage, "add"),
        (metrics.WindowedAverage, "update"),
        (metrics.MetricsCollector, "on_segment_completed"),
    ):
        patcher.wrap(owner, method, lambda fn: timed(tracer, "sim.metrics", fn))


def instrument_engine(patcher: Patcher, tracer: Tracer) -> None:
    """``sim.engine``: ``run_until`` spans, one ``sim.event`` span per event.

    Every action handed to the scheduler is wrapped at schedule time, so
    the wrapping must be installed before the system is built.  The
    engine's self time is ``run_until`` minus its events; an event's self
    time is the handler glue no layer span covers (``core.system``
    handlers, RNG draws, clock re-arming).
    """
    event_idx = tracer.index("sim.event")

    def traced_action(action: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            tracer.new_event()
            tracer.enter(event_idx)
            try:
                action()
            finally:
                tracer.leave()
        return run

    for method in ("schedule", "schedule_at", "schedule_call", "schedule_call_at"):
        patcher.wrap(
            engine.Simulator, method,
            lambda fn: lambda sim, when, action: fn(sim, when, traced_action(action)),
        )
    patcher.wrap(
        engine.Simulator, "run_until",
        lambda fn: timed(tracer, "sim.engine", fn),
    )


def instrument_event_system(patcher: Patcher, tracer: Tracer) -> None:
    """Every layer an event-engine run (abstract or RLNC) goes through."""
    instrument_engine(patcher, tracer)
    instrument_core(patcher, tracer)
    instrument_coding(patcher, tracer)
    instrument_metrics(patcher, tracer)
    patcher.watch_gc(tracer)


def instrument_fastsim(patcher: Patcher, tracer: Tracer) -> None:
    """``fastsim``: the stepper, its channel kernels and housekeeping."""
    cls = fast_system.FastCollectionSystem
    for kernel in ("inject", "gossip", "pull", "ttl", "churn"):
        patcher.wrap(
            cls, f"kernel_{kernel}",
            lambda fn, k=kernel: timed(tracer, f"fastsim.kernel_{k}", fn),
        )
    for method in ("push_averages", "consistency_check"):
        patcher.wrap(
            cls, method, lambda fn, m=method: timed(tracer, f"fastsim.{m}", fn)
        )
    patcher.wrap(
        fast_state.FastState, "compact_segments",
        lambda fn: timed(tracer, "fastsim.compact_segments", fn),
    )
    patcher.wrap(
        TauLeapStepper, "run_until",
        lambda fn: timed(tracer, "fastsim.stepper", fn),
    )
    instrument_metrics(patcher, tracer)
    patcher.watch_gc(tracer)


def instrument_live(patcher: Patcher, tracer: Tracer) -> None:
    """``live.framing``, ``live.wire``, ``live.transport`` plus the shared
    core/coding/metrics layers live peers and servers reuse.

    The swarm reads frames with ``framing.read_frame``, which parses each
    header with ``framing._parse_header``; ``FrameDecoder.feed`` is not on
    its path, so the decode side is timed at the header parse.
    """

    def frame_bytes(result: Any, args: Tuple[Any, ...]) -> None:
        tracer.count("live.framing.encode.bytes", len(result))

    def header_bytes(result: Any, args: Tuple[Any, ...]) -> None:
        tracer.count("live.framing.decode.bytes", len(args[0]))

    patcher.wrap(
        framing, "encode_frame",
        lambda fn: timed(tracer, "live.framing.encode", fn, frame_bytes),
    )
    patcher.wrap(
        framing, "_parse_header",
        lambda fn: timed(tracer, "live.framing.decode", fn, header_bytes),
    )
    for name in ("block_to_wire", "block_from_wire"):
        patcher.wrap(
            wire, name, lambda fn, n=name: timed(tracer, f"live.wire.{n}", fn)
        )

    conn = transport.FramedConnection

    def counted_send(fn: Callable[..., Any]) -> Callable[..., Any]:
        async def send(self: Any, *args: Any, **kwargs: Any) -> Any:
            tracer.count("live.transport.send.calls")
            return await fn(self, *args, **kwargs)
        return send

    def timed_request(fn: Callable[..., Any]) -> Callable[..., Any]:
        async def request(self: Any, *args: Any, **kwargs: Any) -> Any:
            tracer.count("live.transport.request.calls")
            started = perf_counter()
            try:
                return await fn(self, *args, **kwargs)
            finally:
                tracer.sample(
                    "live.transport.request_ms",
                    (perf_counter() - started) * 1000.0,
                )
        return request

    opener = conn.__dict__["open"].__func__

    async def counted_open(cls: Any, *args: Any, **kwargs: Any) -> Any:
        tracer.count("live.transport.opens")
        return await opener(cls, *args, **kwargs)

    patcher.wrap(conn, "send", counted_send)
    patcher.wrap(conn, "request", timed_request)
    patcher.set(conn, "open", classmethod(counted_open))
    instrument_core(patcher, tracer)
    instrument_coding(patcher, tracer)
    instrument_metrics(patcher, tracer)
    patcher.watch_gc(tracer)


class ScheduleProbe:
    """Counts live Poisson fires in the measured window; optionally traces.

    Wraps ``PoissonSchedule.wait`` (injection, gossip and pull clocks all
    use it).  Counting is always on: it feeds ``served_fraction``.  With a
    tracer, each fire also starts a new event id in its task and records
    its lateness: how long after its due time the wait returned.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.tracer = tracer
        self.fires = 0
        self.open = False
        #: the swarm's clock, captured when the window opens.
        self.clock: Any = None

    def install(self, patcher: Patcher) -> None:
        probe = self

        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            async def wait(schedule: PoissonSchedule) -> float:
                at: float = await fn(schedule)
                if probe.open:
                    probe.fires += 1
                    tracer = probe.tracer
                    if tracer is not None:
                        tracer.new_event()
                        clock = probe.clock
                        late = (clock.now() - at) / clock.time_scale
                        tracer.sample("live.clock.lateness_ms", late * 1000.0)
                return at
            return wait

        patcher.wrap(PoissonSchedule, "wait", make)


async def loop_lag_probe(tracer: Tracer, interval: float = 0.005) -> None:
    """Sample event-loop lag: how late a sleep of *interval* wakes up."""
    loop = asyncio.get_running_loop()
    while True:
        started = loop.time()
        await asyncio.sleep(interval)
        lag = loop.time() - started - interval
        tracer.sample("asyncio.loop_lag_ms", max(lag, 0.0) * 1000.0)

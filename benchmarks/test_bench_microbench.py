"""Microbenchmarks of the computational substrates.

Not paper artifacts, but the numbers an adopter asks first: how fast is the
GF(2^8) codec, the incremental decoder, and the event engine itself.  These
use pytest-benchmark's normal multi-round timing (they are cheap).
"""

import numpy as np

from repro.coding import gf256
from repro.coding.linalg import IncrementalDecoder
from repro.coding.rlnc import block_rows, recode
from repro.coding.block import SegmentDescriptor, make_source_blocks
from repro.core.params import Parameters
from repro.core.system import CollectionSystem
from repro.sim.engine import Simulator


def test_bench_gf256_axpy(benchmark):
    """vec_addmul on a 1 KiB payload — the inner loop of all coding."""
    accumulator = np.zeros(1024, dtype=np.uint8)
    vector = np.arange(1024, dtype=np.uint8)
    benchmark(gf256.vec_addmul, accumulator, vector, 0x53)


def test_bench_recode_segment32(benchmark):
    """Re-encoding one coded block from 32 held blocks of 256 B each."""
    descriptor = SegmentDescriptor(
        segment_id=0, source_peer=0, size=32, injected_at=0.0
    )
    rng = np.random.default_rng(0)
    payloads = rng.integers(0, 256, size=(32, 256), dtype=np.uint8)
    rows = block_rows(make_source_blocks(descriptor, payloads))
    benchmark(recode, descriptor, rows, rng)


def test_bench_incremental_decode_segment32(benchmark):
    """Full decode of a 32-block segment from random combinations."""
    rng = np.random.default_rng(1)
    size, payload_len = 32, 256
    originals = rng.integers(0, 256, size=(size, payload_len), dtype=np.uint8)
    coded = []
    for _ in range(size + 4):
        coeffs = rng.integers(0, 256, size=size, dtype=np.uint8)
        payload = np.zeros(payload_len, dtype=np.uint8)
        for j in range(size):
            if coeffs[j]:
                gf256.vec_addmul(payload, originals[j], int(coeffs[j]))
        coded.append((coeffs, payload))

    def decode_all():
        decoder = IncrementalDecoder(size)
        for coeffs, payload in coded:
            decoder.add(coeffs, payload)
            if decoder.is_complete:
                break
        return decoder.decode()

    result = benchmark(decode_all)
    assert np.array_equal(result, originals)


def test_bench_event_engine_throughput(benchmark):
    """Raw engine speed: schedule/execute 20k trivial events.

    Uses the handle-free fast path (`schedule_call`) — the scheduling
    flavour the protocol's recurring clocks, TTL expiries, and delivery
    latencies actually ride.
    """

    def run():
        sim = Simulator()
        for index in range(20_000):
            sim.schedule_call(index * 1e-4, lambda: None)
        sim.run_until(10.0)
        return sim.events_processed

    assert benchmark(run) == 20_000


def test_bench_event_engine_probe_installed(benchmark):
    """Engine throughput with a no-op probe armed every 256 events.

    The chaos layer's invariant monitors ride this hook; paired with
    ``test_bench_event_engine_throughput`` (probe off) it bounds the
    monitoring tax on the raw event loop.
    """

    def run():
        sim = Simulator()
        sim.set_probe(lambda: None, every=256)
        for index in range(20_000):
            sim.schedule_call(index * 1e-4, lambda: None)
        sim.run_until(10.0)
        return sim.events_processed

    assert benchmark(run) == 20_000


def _session_params():
    return Parameters(
        n_peers=100,
        arrival_rate=20.0,
        gossip_rate=10.0,
        deletion_rate=1.0,
        normalized_capacity=8.0,
        segment_size=20,
        n_servers=4,
    )


def test_bench_simulation_second(benchmark):
    """One simulated time unit of a 100-peer abstract-mode session."""
    system = CollectionSystem(_session_params(), seed=1)
    system.run_until(5.0)  # reach steady state outside the timer

    state = {"t": 5.0}

    def advance_one_unit():
        state["t"] += 1.0
        system.run_until(state["t"])

    benchmark.pedantic(advance_one_unit, rounds=10, iterations=1)


def test_bench_simulation_second_defended(benchmark):
    """The same simulated second with both server defenses switched on.

    Honest population, so this prices the pure defense tax: every pull
    outcome folds into the EWMA scorer and every capture check consults
    trust.  The adversary-hooks-off cost is ``test_bench_simulation_second``
    itself (the guards ride that path unconditionally); bench_compare
    against the committed baseline bounds it.
    """
    params = Parameters(
        n_peers=100,
        arrival_rate=20.0,
        gossip_rate=10.0,
        deletion_rate=1.0,
        normalized_capacity=8.0,
        segment_size=20,
        n_servers=4,
        pull_scoring=True,
        advert_discounting=True,
    )
    system = CollectionSystem(params, seed=1)
    system.run_until(5.0)

    state = {"t": 5.0}

    def advance_one_unit():
        state["t"] += 1.0
        system.run_until(state["t"])

    benchmark.pedantic(advance_one_unit, rounds=10, iterations=1)
    assert system.metrics.false_quarantines.total == 0


def test_bench_simulation_second_monitored(benchmark):
    """The same simulated second with the full invariant suite sweeping.

    Monitors-on counterpart of ``test_bench_simulation_second``: a
    MonitorSuite at the default cadence (every 256 events) audits block
    conservation, buffer caps, peer tracking, saved-segment accounting,
    rank monotonicity, and event-time sanity while the clock advances.
    """
    from repro.chaos.monitors import MonitorSuite, runtime_monitors

    system = CollectionSystem(_session_params(), seed=1)
    system.run_until(5.0)

    suite = MonitorSuite(
        system, every=256, monitors=runtime_monitors(system)
    )
    suite.install()
    state = {"t": 5.0}

    def advance_one_unit():
        state["t"] += 1.0
        system.run_until(state["t"])

    benchmark.pedantic(advance_one_unit, rounds=10, iterations=1)
    suite.uninstall()
    assert suite.checks_run > 0

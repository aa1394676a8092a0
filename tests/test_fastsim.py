"""Tests for the vectorized fast engine (state, steppers, sharding).

Four contracts are exercised here:

- **Engine fidelity** — same-seed fast and event runs agree
  *distributionally* (the fast engine is a mean-field closure, not an
  event-for-event replay) on the steady-state observables within a
  documented tolerance, and the exact aggregate-clock path (tau=0)
  agrees with the tau-leap path.
- **Invariant safety** — array-level conservation monitors stay clean
  under the full fault/adversary channel set.
- **Reference equality** — the sort-based dedup equals ``np.unique``,
  and ``FastState.remove_block_rows`` equals its ``np.unique``/
  ``np.setdiff1d`` reference column for column.
- **Shard determinism** — ``run_shard`` payloads are pure (JSON
  round-trippable) and ``merge_shard_payloads`` is order-blind, so a
  sharded run is byte-identical for any worker count.
"""

import copy
import json

import numpy as np

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.params import ENGINE_FAST, Parameters
from repro.core.system import CollectionSystem
from repro.experiments import (
    SimBudget,
    budget_as_dict,
    budget_from_dict,
    override_budget,
    plan_scale,
)
from repro.experiments.base import simulate_cell
from repro.fastsim import (
    FastCollectionSystem,
    merge_shard_payloads,
    run_shard,
    shard_parameters,
)
from repro.fastsim.shard import shard_seed
from repro.fastsim.state import FastState, sorted_unique
from repro.fastsim.system import DelayAccumulator
from repro.faults import FaultPlan
from repro.adversary import AdversaryPlan


def params(**overrides):
    defaults = dict(
        n_peers=250,
        arrival_rate=6.0,
        gossip_rate=8.0,
        deletion_rate=1.0,
        normalized_capacity=3.0,
        segment_size=4,
        n_servers=2,
    )
    defaults.update(overrides)
    return Parameters(**defaults)


def rel_close(a, b, tolerance):
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / scale <= tolerance


class TestBudgetPlumbing:
    def test_engine_field_validated(self):
        with pytest.raises(ValueError, match="engine"):
            SimBudget(
                n_peers=10, warmup=1.0, duration=1.0, seeds=(1,),
                engine="warp",
            )

    def test_tau_field_validated(self):
        with pytest.raises(ValueError, match="tau"):
            SimBudget(
                n_peers=10, warmup=1.0, duration=1.0, seeds=(1,), tau=-0.5,
            )
        with pytest.raises(ValueError, match="tau"):
            SimBudget(
                n_peers=10, warmup=1.0, duration=1.0, seeds=(1,),
                tau=float("inf"),
            )

    def test_budget_dict_roundtrip_carries_engine(self):
        budget = SimBudget(
            n_peers=10, warmup=1.0, duration=2.0, seeds=(1, 2),
            engine=ENGINE_FAST, tau=0.25,
        )
        restored = budget_from_dict(budget_as_dict(budget))
        assert restored == budget

    def test_budget_from_legacy_dict_defaults_to_event(self):
        # manifests journaled before the fast engine carry no engine/tau
        legacy = budget_as_dict(
            SimBudget(n_peers=10, warmup=1.0, duration=2.0, seeds=(1,))
        )
        legacy.pop("engine")
        legacy.pop("tau")
        restored = budget_from_dict(legacy)
        assert restored.engine == "event"
        assert restored.tau == 0.01

    def test_override_budget_engine_tau(self):
        base = SimBudget(n_peers=10, warmup=1.0, duration=2.0, seeds=(1,))
        bumped = override_budget(base, engine=ENGINE_FAST, tau=0.1)
        assert bumped.engine == ENGINE_FAST
        assert bumped.tau == 0.1
        assert override_budget(base).engine == base.engine

    def test_simulate_cell_rejects_workload_on_fast_engine(self):
        fast = params(n_peers=40, engine=ENGINE_FAST, tau=0.05)
        with pytest.raises(ValueError, match="workload"):
            simulate_cell(
                fast, 1.0, 2.0, ["efficiency"], seed=1, workload=object()
            )

    def test_simulate_cell_dispatches_to_fast_engine(self):
        fast = params(n_peers=60, engine=ENGINE_FAST, tau=0.05)
        cell = simulate_cell(
            fast, 2.0, 6.0, ["efficiency", "normalized_throughput"], seed=1
        )
        assert 0.0 < cell["efficiency"] <= 1.0
        assert cell["normalized_throughput"] > 0.0


class TestFastSystemValidation:
    def test_rejects_rlnc_mode(self):
        with pytest.raises(ValueError, match="mode"):
            FastCollectionSystem(params(mode="rlnc"))

    def test_rejects_uniform_selection(self):
        with pytest.raises(ValueError, match="segment_selection"):
            FastCollectionSystem(params(segment_selection="uniform"))

    def test_rejects_nonzero_gossip_latency(self):
        with pytest.raises(ValueError, match="gossip_latency"):
            FastCollectionSystem(params(gossip_latency=0.5))

    def test_rejects_bad_stats_stride(self):
        with pytest.raises(ValueError, match="stats_stride"):
            FastCollectionSystem(params(), stats_stride=0)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError, match="warmup"):
            FastCollectionSystem(params(n_peers=20)).run(-1.0, 2.0)

    def test_parameters_reject_fast_engine_with_rlnc(self):
        with pytest.raises(ValueError, match="engine"):
            params(mode="rlnc", engine=ENGINE_FAST)


class TestEngineFidelity:
    """Distributional fast-vs-event agreement (the mean-field contract)."""

    #: relative tolerance on steady-state observables at N=250; the fast
    #: engine is a mean-field closure, so residual disagreement is
    #: finite-size noise plus the tau discretization (docs/PERFORMANCE.md).
    TOLERANCE = 0.20

    def run_pair(self, seed=3, **overrides):
        p_fast = params(engine=ENGINE_FAST, tau=0.05, **overrides)
        p_event = params(**overrides)
        fast = FastCollectionSystem(p_fast, seed=seed).run(8.0, 16.0)
        event = CollectionSystem(p_event, seed=seed).run(8.0, 16.0)
        return fast, event

    def test_honest_steady_state_agrees(self):
        fast, event = self.run_pair()
        assert rel_close(fast.efficiency, event.efficiency, self.TOLERANCE)
        assert rel_close(
            fast.normalized_throughput,
            event.normalized_throughput,
            self.TOLERANCE,
        )
        assert rel_close(
            fast.mean_block_delay, event.mean_block_delay, self.TOLERANCE
        )

    def test_churn_occupancy_agrees(self):
        fast, event = self.run_pair(mean_lifetime=6.0)
        assert fast.departures > 0
        assert rel_close(
            fast.mean_buffer_occupancy,
            event.mean_buffer_occupancy,
            self.TOLERANCE,
        )

    def test_tau_leap_agrees_with_exact_clocks(self):
        p_tau = params(n_peers=150, engine=ENGINE_FAST, tau=0.05)
        p_exact = params(n_peers=150, engine=ENGINE_FAST, tau=0.0)
        leaped = FastCollectionSystem(p_tau, seed=5).run(6.0, 12.0)
        exact = FastCollectionSystem(p_exact, seed=5).run(6.0, 12.0)
        assert exact.engine_events_fired > 0
        assert rel_close(leaped.efficiency, exact.efficiency, 0.15)
        assert rel_close(
            leaped.mean_block_delay, exact.mean_block_delay, 0.15
        )

    def test_monitors_clean_under_all_channels(self):
        # every fault/adversary kernel firing on one session; the
        # array-level conservation monitors must stay silent.
        p = params(
            n_peers=200,
            engine=ENGINE_FAST,
            tau=0.05,
            mean_lifetime=8.0,
            faults=FaultPlan(
                gossip_loss_rate=0.1,
                pull_loss_rate=0.1,
                pollution_fraction=0.1,
                burst_rate=0.3,
                burst_fraction=0.05,
                outage_rate=0.2,
                outage_duration=0.5,
            ),
            adversary=AdversaryPlan(
                liar_fraction=0.05,
                freerider_fraction=0.05,
                polluter_fraction=0.05,
                sybil_rate=0.3,
                sybil_fraction=0.05,
            ),
        )
        system = FastCollectionSystem(p, seed=11)
        report = system.run(4.0, 10.0)
        system.consistency_check()
        assert report.departures > 0
        assert report.transfers_dropped > 0
        assert report.pulls_captured > 0
        assert report.sybil_conversions > 0
        assert report.outage_time > 0


class TestDelayAccumulator:
    def test_mean_and_percentiles(self):
        acc = DelayAccumulator()
        acc.add(np.array([1.0, 2.0, 3.0, 4.0]))
        assert acc.mean() == pytest.approx(2.5)
        p50 = acc.percentile(50.0)
        p95 = acc.percentile(95.0)
        assert p50 is not None and p95 is not None
        assert p50 <= p95
        assert 1.0 <= p50 <= 4.0

    def test_empty_accumulator_reports_none(self):
        acc = DelayAccumulator()
        assert acc.mean() is None
        assert acc.percentile(50.0) is None

    def test_merge_counts_equals_single_pass(self):
        one = DelayAccumulator()
        one.add(np.array([0.5, 1.5, 2.5, 7.0]))
        split_a, split_b = DelayAccumulator(), DelayAccumulator()
        split_a.add(np.array([0.5, 1.5]))
        split_b.add(np.array([2.5, 7.0]))
        folded = DelayAccumulator()
        for part in (split_a, split_b):
            folded.merge_counts(part.counts, part.count, part.total)
        assert folded.count == one.count
        assert folded.total == pytest.approx(one.total)
        assert folded.percentile(50.0) == pytest.approx(one.percentile(50.0))


INT64 = np.iinfo(np.int64)


class TestSortedUnique:
    """``sorted_unique`` is ``np.unique`` computed by one sort."""

    @staticmethod
    def assert_same_as_unique(values):
        expected = np.unique(values)
        got = sorted_unique(values)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    @given(
        st.lists(
            st.integers(min_value=int(INT64.min), max_value=int(INT64.max)),
            max_size=300,
        )
    )
    @settings(max_examples=200)
    def test_matches_np_unique_wide_range(self, values):
        self.assert_same_as_unique(np.array(values, dtype=np.int64))

    @given(st.lists(st.integers(min_value=-3, max_value=3), max_size=300))
    @settings(max_examples=200)
    def test_matches_np_unique_dense_duplicates(self, values):
        self.assert_same_as_unique(np.array(values, dtype=np.int64))

    @given(
        st.integers(min_value=int(INT64.min), max_value=int(INT64.max)),
        st.integers(min_value=1, max_value=50),
    )
    def test_all_equal_collapses_to_one(self, value, count):
        values = np.full(count, value, dtype=np.int64)
        self.assert_same_as_unique(values)
        assert len(sorted_unique(values)) == 1

    def test_empty_and_single(self):
        self.assert_same_as_unique(np.empty(0, dtype=np.int64))
        self.assert_same_as_unique(np.array([INT64.min], dtype=np.int64))
        self.assert_same_as_unique(np.array([INT64.max], dtype=np.int64))


def reference_remove_block_rows(state, rows):
    """``FastState.remove_block_rows`` as written with ``np.unique`` and
    ``np.setdiff1d``: the reference the sort-based version must match."""
    count = len(rows)
    n = state.n_blocks
    if count == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty.astype(bool), empty
    peers = state.block_peer[rows].copy()
    segments = state.block_seg[rows].copy()
    polluted = state.block_polluted[rows].copy()

    keep_start = n - count
    holes = rows[rows < keep_start]
    tail_deleted = rows[rows >= keep_start]
    tail_kept = np.setdiff1d(
        np.arange(keep_start, n, dtype=rows.dtype),
        tail_deleted,
        assume_unique=True,
    )
    state.block_peer[holes] = state.block_peer[tail_kept]
    state.block_seg[holes] = state.block_seg[tail_kept]
    state.block_polluted[holes] = state.block_polluted[tail_kept]
    state.n_blocks = keep_start

    np.subtract.at(state.peer_blocks, peers, 1)
    np.subtract.at(state.seg_degree, segments, 1)
    if polluted.any():
        np.subtract.at(state.seg_polluted, segments[polluted], 1)

    touched = np.unique(segments)
    extinct = touched[
        (state.seg_degree[touched] == 0) & state.seg_alive[touched]
    ]
    if len(extinct):
        state.seg_alive[extinct] = False
        state.live_segments -= len(extinct)
    return peers, segments, polluted, extinct


STATE_COLUMNS = (
    "peer_blocks",
    "block_peer",
    "block_seg",
    "block_polluted",
    "seg_degree",
    "seg_polluted",
    "seg_collected",
    "seg_injected_at",
    "seg_alive",
)


def random_block_table(rng, n_peers=40, n_segments=60):
    """A FastState with 1-4 blocks per segment on random peers."""
    state = FastState(n_peers=n_peers, capacity=10_000, segment_size=4)
    ids = state.new_segments(rng.random(n_segments))
    segments = np.repeat(ids, rng.integers(1, 5, size=n_segments))
    rng.shuffle(segments)
    peers = rng.integers(0, n_peers, size=len(segments))
    polluted = rng.random(len(segments)) < 0.3
    state.append_blocks(peers, segments, polluted)
    return state


class TestRemoveBlockRows:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_reference_with_extinctions(self, seed):
        rng = np.random.default_rng(seed)
        state = random_block_table(rng)
        reference = copy.deepcopy(state)
        total_extinct = 0
        # Several rounds, so later removals act on swapped-down tables.
        for _ in range(4):
            k = state.n_blocks
            if k == 0:
                break
            table = state.block_seg[:k]
            # Every row of a few segments (forced extinctions) plus a
            # random sample of the rest, including tail rows.
            doomed = rng.choice(
                np.unique(table), size=min(3, len(np.unique(table))),
                replace=False,
            )
            rows = np.flatnonzero(np.isin(table, doomed))
            sample = rng.integers(0, k, size=rng.integers(0, k // 2 + 1))
            rows = np.unique(np.concatenate([rows, sample]))

            got = state.remove_block_rows(rows.copy())
            want = reference_remove_block_rows(reference, rows.copy())
            for got_part, want_part in zip(got, want):
                assert got_part.dtype == want_part.dtype
                assert np.array_equal(got_part, want_part)
            assert state.n_blocks == reference.n_blocks
            assert state.live_segments == reference.live_segments
            for name in STATE_COLUMNS:
                assert np.array_equal(
                    getattr(state, name), getattr(reference, name)
                ), name
            state.check_conservation()
            total_extinct += len(got[3])
        assert total_extinct > 0

    def test_empty_rows_is_a_no_op(self):
        state = random_block_table(np.random.default_rng(0))
        reference = copy.deepcopy(state)
        got = state.remove_block_rows(np.empty(0, dtype=np.int64))
        want = reference_remove_block_rows(
            reference, np.empty(0, dtype=np.int64)
        )
        assert len(got) == len(want) == 4
        for got_part, want_part in zip(got, want):
            assert got_part.dtype == want_part.dtype
            assert len(got_part) == 0
        for name in STATE_COLUMNS:
            assert np.array_equal(getattr(state, name), getattr(reference, name))


class TestSharding:
    def test_shard_parameters_partition(self):
        p = params(n_peers=103, n_servers=4)
        parts = shard_parameters(p, 4)
        assert [q.n_peers for q in parts] == [26, 26, 26, 25]
        assert sum(q.n_peers for q in parts) == 103
        assert all(q.n_servers == 4 for q in parts)

    def test_shard_parameters_validation(self):
        with pytest.raises(ValueError, match="shards"):
            shard_parameters(params(), 0)
        with pytest.raises(ValueError, match="n_peers"):
            shard_parameters(params(n_peers=3), 4)

    def test_shard_seeds_are_distinct(self):
        seeds = {shard_seed(7, i) for i in range(8)}
        assert len(seeds) == 8

    def test_payload_is_json_pure(self):
        p = params(n_peers=80, engine=ENGINE_FAST, tau=0.05)
        payload = run_shard(p, 3, 0, 2, 2.0, 6.0)
        restored = json.loads(json.dumps(payload))
        assert restored == payload
        assert payload["monitors_clean"] is True
        assert payload["n_peers"] == 40

    def test_merge_is_order_blind(self):
        p = params(n_peers=120, engine=ENGINE_FAST, tau=0.05)
        payloads = [run_shard(p, 3, i, 3, 2.0, 6.0) for i in range(3)]
        forward = merge_shard_payloads(payloads)
        backward = merge_shard_payloads(list(reversed(payloads)))
        assert forward == backward
        assert forward["n_peers"] == 120
        assert forward["shards"] == 3
        assert forward["monitors_clean"] is True
        assert forward["engine_events_fired"] == sum(
            q["events_applied"] for q in payloads
        )

    def test_single_shard_merge_matches_direct_run(self):
        p = params(n_peers=100, engine=ENGINE_FAST, tau=0.05)
        merged = merge_shard_payloads([run_shard(p, 9, 0, 1, 2.0, 6.0)])
        direct = FastCollectionSystem(
            shard_parameters(p, 1)[0], shard_seed(9, 0)
        ).run(2.0, 6.0)
        assert merged["efficiency"] == pytest.approx(direct.efficiency)
        assert merged["normalized_throughput"] == pytest.approx(
            direct.normalized_throughput
        )
        assert merged["useful_pulls"] == direct.useful_pulls

    def test_merge_rejects_window_mismatch(self):
        p = params(n_peers=80, engine=ENGINE_FAST, tau=0.05)
        a = run_shard(p, 3, 0, 2, 2.0, 6.0)
        b = run_shard(p, 3, 1, 2, 2.0, 4.0)
        with pytest.raises(ValueError, match="window"):
            merge_shard_payloads([a, b])

    def test_merge_rejects_schema_mismatch(self):
        p = params(n_peers=80, engine=ENGINE_FAST, tau=0.05)
        a = run_shard(p, 3, 0, 1, 2.0, 4.0)
        stale = dict(a, schema=0)
        with pytest.raises(ValueError, match="schema"):
            merge_shard_payloads([stale])

    def test_merge_requires_payloads(self):
        with pytest.raises(ValueError, match="payload"):
            merge_shard_payloads([])


class TestScalePlan:
    BUDGET = SimBudget(
        n_peers=120, warmup=2.0, duration=5.0, seeds=(1,),
        engine=ENGINE_FAST, tau=0.05,
    )

    def test_grid_shape(self):
        plan = plan_scale(
            n_values=(64, 128), segment_sizes=(4,), shards=2,
            budget=self.BUDGET,
        )
        assert len(plan.tasks) == 2 * 1 * 1 * 2
        ids = [task.task_id for task in plan.tasks]
        assert len(set(ids)) == len(ids)
        assert "N=64:s=4:seed=1:shard=00of02" in ids

    def test_rejects_oversharded_population(self):
        with pytest.raises(ValueError, match="shards"):
            plan_scale(n_values=(3,), shards=4, budget=self.BUDGET)

    def test_serial_run_produces_flat_series(self):
        result = plan_scale(
            n_values=(80, 160), segment_sizes=(4,), shards=2,
            budget=self.BUDGET,
        ).run_serial()
        assert result.x_values == [80.0, 160.0]
        assert "efficiency s=4" in result.series
        assert "throughput s=4" in result.series
        assert any("monitors clean" in note for note in result.notes)

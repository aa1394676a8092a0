"""Tests for the peer buffer model."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.peer as peer_module
from repro.coding import gf256
from repro.coding.block import CodedBlock, SegmentDescriptor, make_source_blocks
from repro.coding.linalg import rank as matrix_rank
from repro.core.params import MODE_RLNC, Parameters
from repro.core.peer import Peer, SegmentHolding
from repro.core.system import CollectionSystem
from repro.faults import FaultPlan, corrupt_block


def descriptor(segment_id=0, size=4):
    return SegmentDescriptor(
        segment_id=segment_id, source_peer=0, size=size, injected_at=0.0
    )


def abstract_block(segment_id=0, size=4):
    return CodedBlock(segment=descriptor(segment_id, size))


class TestSegmentHolding:
    def test_abstract_independence_caps_at_size(self):
        holding = SegmentHolding(descriptor(size=3))
        for _ in range(5):
            holding.add(abstract_block(size=3))
        assert holding.block_count == 5
        assert holding.independent_count() == 3

    def test_rlnc_independence_is_true_rank(self):
        desc = descriptor(size=3)
        holding = SegmentHolding(desc)
        blocks = make_source_blocks(desc)
        holding.add(blocks[0])
        # a scaled copy of block 0 adds no rank
        copy = CodedBlock(segment=desc, coefficients=blocks[0].coefficients * 0 + blocks[0].coefficients)
        holding.add(copy)
        assert holding.block_count == 2
        assert holding.independent_count() == 1
        holding.add(blocks[1])
        assert holding.independent_count() == 2

    def test_rank_cache_invalidated_on_removal(self):
        desc = descriptor(size=2)
        holding = SegmentHolding(desc)
        blocks = make_source_blocks(desc)
        holding.add(blocks[0])
        holding.add(blocks[1])
        assert holding.independent_count() == 2
        holding.remove(blocks[1])
        assert holding.independent_count() == 1

    def test_wrong_segment_rejected(self):
        holding = SegmentHolding(descriptor(segment_id=0))
        with pytest.raises(ValueError):
            holding.add(abstract_block(segment_id=1))

    def test_remove_absent_returns_false(self):
        holding = SegmentHolding(descriptor())
        assert not holding.remove(abstract_block())

    def test_encode_from_empty_raises(self):
        with pytest.raises(ValueError):
            SegmentHolding(descriptor()).make_coded_block(
                np.random.default_rng(0), now=0.0
            )

    def test_abstract_encode_emits_bare_block(self):
        holding = SegmentHolding(descriptor())
        holding.add(abstract_block())
        out = holding.make_coded_block(np.random.default_rng(0), now=3.0)
        assert not out.is_coded
        assert out.created_at == 3.0

    def test_rlnc_encode_emits_span_block(self):
        desc = descriptor(size=3)
        holding = SegmentHolding(desc)
        for block in make_source_blocks(desc)[:2]:
            holding.add(block)
        out = holding.make_coded_block(np.random.default_rng(1), now=0.0)
        assert out.is_coded
        assert out.coefficients[2] == 0  # not in span of e0,e1


def fused(blocks):
    """Stack ``[coefficients | payload]`` of *blocks*, in order."""
    return np.stack(
        [
            block.coefficients
            if block.payload is None
            else np.concatenate([block.coefficients, block.payload])
            for block in blocks
        ]
    )


def held_rows(holding):
    """The holding's fused rows for its live blocks."""
    return holding._rows[: holding.block_count]


def list_recode(blocks, rng):
    """Reference recode over a block list: one draw (rejecting all-zero),
    then one scalar axpy per block into the header and, when every block
    carries one, into the payload."""
    while True:
        local = rng.integers(0, 256, size=len(blocks), dtype=np.uint8)
        if local.any():
            break
    coefficients = np.zeros(blocks[0].coefficients.shape, dtype=np.uint8)
    with_payload = all(block.payload is not None for block in blocks)
    payload = (
        np.zeros(blocks[0].payload.shape, dtype=np.uint8) if with_payload else None
    )
    for scalar, block in zip(local, blocks):
        gf256.vec_addmul(coefficients, block.coefficients, int(scalar))
        if with_payload:
            gf256.vec_addmul(payload, block.payload, int(scalar))
    return coefficients, payload


#: One step of a holding's life: store a fresh block, store a corrupted
#: one, or drop the block at a (wrapped) index.
HOLDING_STEPS = st.lists(
    st.tuples(st.sampled_from(["add", "pollute", "remove"]), st.integers(0, 63)),
    min_size=1,
    max_size=40,
)


class TestHoldingRows:
    """A coded holding's fused rows track its block list exactly."""

    @given(
        steps=HOLDING_STEPS,
        size=st.integers(1, 6),
        payload_len=st.sampled_from([0, 1, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_rank_and_recode_match_block_list(
        self, steps, size, payload_len, seed
    ):
        desc = descriptor(size=size)
        holding = SegmentHolding(desc)
        data = np.random.default_rng(seed)
        for action, pick in steps:
            if action == "remove" and holding.blocks:
                victim = holding.blocks[pick % len(holding.blocks)]
                assert holding.remove(victim)
                assert not holding.remove(victim)
            elif action != "remove":
                block = CodedBlock(
                    segment=desc,
                    coefficients=data.integers(0, 256, size, dtype=np.uint8),
                    payload=(
                        data.integers(0, 256, payload_len, dtype=np.uint8)
                        if payload_len
                        else None
                    ),
                )
                if action == "pollute":
                    corrupt_block(block)  # before storing, as the protocol does
                holding.add(block)
            self.check(holding, seed + len(holding.blocks))

    @staticmethod
    def check(holding, seed):
        blocks = holding.blocks
        assert holding.polluted_count == sum(b.polluted for b in blocks)
        if not blocks:
            assert holding.independent_count() == 0
            return
        assert np.array_equal(held_rows(holding), fused(blocks))
        assert holding.independent_count() == matrix_rank(
            np.stack([b.coefficients for b in blocks])
        )
        rng = np.random.default_rng(seed)
        reference = np.random.default_rng(seed)
        out = holding.make_coded_block(rng, now=1.5)
        coefficients, payload = list_recode(blocks, reference)
        assert out.segment == holding.descriptor and out.created_at == 1.5
        assert out.coefficients.tobytes() == coefficients.tobytes()
        if payload is None:
            assert out.payload is None
        else:
            assert out.payload.tobytes() == payload.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_rows_are_copied_on_add(self):
        desc = descriptor(size=3)
        holding = SegmentHolding(desc)
        block = make_source_blocks(desc, np.ones((3, 2), dtype=np.uint8))[1]
        holding.add(block)
        block.coefficients[:] = 7
        assert held_rows(holding).tolist() == [[0, 1, 0, 1, 1]]

    def test_polluted_blocks_never_leave_stale_rows(self):
        """Pollution corrupts a block before it is stored, so after a run
        with polluters every holding's rows equal its blocks' bytes."""
        params = Parameters(
            n_peers=30,
            arrival_rate=6.0,
            gossip_rate=8.0,
            deletion_rate=1.0,
            normalized_capacity=3.0,
            segment_size=4,
            n_servers=2,
            mode=MODE_RLNC,
            payload_bytes=8,
            faults=FaultPlan(pollution_fraction=0.3),
        )
        system = CollectionSystem(params, seed=3)
        system.run(warmup=1.0, duration=2.0)
        assert system.metrics.blocks_rejected_polluted.total > 0
        holdings = [
            holding for peer in system.peers for holding in peer.holdings.values()
        ]
        assert any(holding.polluted_count for holding in holdings)
        for holding in holdings:
            assert np.array_equal(held_rows(holding), fused(holding.blocks))

    def test_abstract_and_coded_blocks_do_not_mix(self):
        desc = descriptor(size=2)
        coded = SegmentHolding(desc)
        coded.add(make_source_blocks(desc)[0])
        with pytest.raises(ValueError):
            coded.add(abstract_block(size=2))
        abstract = SegmentHolding(desc)
        abstract.add(abstract_block(size=2))
        with pytest.raises(ValueError):
            abstract.add(make_source_blocks(desc)[0])

    def test_row_width_must_match(self):
        desc = descriptor(size=2)
        holding = SegmentHolding(desc)
        holding.add(make_source_blocks(desc, np.zeros((2, 4), dtype=np.uint8))[0])
        with pytest.raises(ValueError):
            holding.add(make_source_blocks(desc)[1])

    def test_make_coded_block_calls_recode_by_module_binding(self, monkeypatch):
        """The per-layer ledger times recode by wrapping this module-level
        name; a holding that recoded without it would drop out of it."""
        calls = []
        real = peer_module.recode

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(peer_module, "recode", counting)
        desc = descriptor(size=3)
        holding = SegmentHolding(desc)
        for block in make_source_blocks(desc):
            holding.add(block)
        holding.make_coded_block(np.random.default_rng(0), now=0.0)
        holding.make_coded_block(np.random.default_rng(1), now=0.0)
        assert len(calls) == 2


class TestPeer:
    def test_initial_state(self):
        peer = Peer(slot=3, capacity=10)
        assert peer.is_empty
        assert not peer.is_full
        assert peer.free_space == 10
        assert peer.block_count == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Peer(slot=0, capacity=0)

    def test_add_and_remove(self):
        peer = Peer(slot=0, capacity=4)
        block = abstract_block()
        peer.add_block(block)
        assert peer.block_count == 1
        assert peer.holds_segment(0)
        assert peer.remove_block(block)
        assert peer.is_empty
        assert not peer.holds_segment(0)
        assert not peer.remove_block(block)

    def test_full_buffer_rejects(self):
        peer = Peer(slot=0, capacity=2)
        peer.add_block(abstract_block(segment_id=0))
        peer.add_block(abstract_block(segment_id=1))
        assert peer.is_full
        with pytest.raises(ValueError):
            peer.add_block(abstract_block(segment_id=2))

    def test_can_inject(self):
        peer = Peer(slot=0, capacity=10)
        assert peer.can_inject(10)
        peer.add_block(abstract_block())
        assert not peer.can_inject(10)
        assert peer.can_inject(9)

    def test_needs_segment_until_s_blocks(self):
        peer = Peer(slot=0, capacity=20)
        for _ in range(3):
            assert peer.needs_segment(0, 4)
            peer.add_block(abstract_block(segment_id=0, size=4))
        peer.add_block(abstract_block(segment_id=0, size=4))
        assert not peer.needs_segment(0, 4)
        assert peer.needs_segment(1, 4)  # a different segment

    def test_needs_segment_false_when_full(self):
        peer = Peer(slot=0, capacity=1)
        peer.add_block(abstract_block(segment_id=0))
        assert not peer.needs_segment(1, 4)

    def test_sample_segment_uniform_over_distinct(self):
        peer = Peer(slot=0, capacity=100)
        # segment 0: 9 blocks; segment 1: 1 block
        for _ in range(9):
            peer.add_block(abstract_block(segment_id=0, size=10))
        peer.add_block(abstract_block(segment_id=1, size=10))
        rng = random.Random(0)
        draws = [peer.sample_segment(rng) for _ in range(2000)]
        share = draws.count(1) / len(draws)
        assert abs(share - 0.5) < 0.05  # uniform over {0, 1}

    def test_sample_segment_proportional_over_blocks(self):
        peer = Peer(slot=0, capacity=100)
        for _ in range(9):
            peer.add_block(abstract_block(segment_id=0, size=10))
        peer.add_block(abstract_block(segment_id=1, size=10))
        rng = random.Random(0)
        draws = [peer.sample_segment_proportional(rng) for _ in range(2000)]
        share = draws.count(1) / len(draws)
        assert abs(share - 0.1) < 0.03  # proportional to multiplicity

    def test_degree_of(self):
        peer = Peer(slot=0, capacity=10)
        peer.add_block(abstract_block(segment_id=0))
        peer.add_block(abstract_block(segment_id=0))
        assert peer.degree_of(0) == 2
        assert peer.degree_of(9) == 0

    def test_all_blocks(self):
        peer = Peer(slot=0, capacity=10)
        blocks = [abstract_block(segment_id=i) for i in range(3)]
        for block in blocks:
            peer.add_block(block)
        assert set(id(b) for b in peer.all_blocks()) == set(id(b) for b in blocks)

    def test_held_segments_tracks_distinct(self):
        peer = Peer(slot=0, capacity=10)
        a = abstract_block(segment_id=0)
        b = abstract_block(segment_id=0)
        peer.add_block(a)
        peer.add_block(b)
        assert len(peer.held_segments) == 1
        peer.remove_block(a)
        assert len(peer.held_segments) == 1
        peer.remove_block(b)
        assert len(peer.held_segments) == 0

    def test_repr(self):
        assert "slot=2" in repr(Peer(slot=2, capacity=5))

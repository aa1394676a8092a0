"""Tests for the RLNC codec: blocks, recoding, segment decoding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import gf256
from repro.coding.block import (
    CodedBlock,
    SegmentDescriptor,
    make_abstract_blocks,
    make_source_blocks,
)
from repro.coding.rlnc import (
    SegmentDecoder,
    block_rows,
    encode_from_source,
    innovation_probability,
    rank_of_blocks,
    recode,
)


def descriptor(size=4, segment_id=0):
    return SegmentDescriptor(
        segment_id=segment_id, source_peer=1, size=size, injected_at=0.0
    )


class TestSegmentDescriptor:
    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            descriptor(size=0)

    def test_str_mentions_ids(self):
        text = str(descriptor(size=3, segment_id=42))
        assert "42" in text and "s=3" in text

    def test_frozen(self):
        with pytest.raises(AttributeError):
            descriptor().size = 9


class TestCodedBlock:
    def test_coefficient_shape_validated(self):
        with pytest.raises(ValueError):
            CodedBlock(segment=descriptor(4), coefficients=[1, 2, 3])

    def test_abstract_block_has_no_coefficients(self):
        block = CodedBlock(segment=descriptor())
        assert not block.is_coded
        assert block.alive

    def test_identity_equality(self):
        a = CodedBlock(segment=descriptor(), coefficients=[1, 0, 0, 0])
        b = CodedBlock(segment=descriptor(), coefficients=[1, 0, 0, 0])
        assert a != b
        assert a == a

    def test_repr_mentions_kind(self):
        assert "abstract" in repr(CodedBlock(segment=descriptor()))

    def test_from_row_views_one_fused_row(self):
        row = np.arange(7, dtype=np.uint8)
        block = CodedBlock.from_row(descriptor(4), row, created_at=2.0)
        assert block.coefficients.tolist() == [0, 1, 2, 3]
        assert block.payload.tolist() == [4, 5, 6]
        assert block.created_at == 2.0
        assert np.shares_memory(block.coefficients, row)
        assert np.shares_memory(block.payload, row)
        assert CodedBlock.from_row(descriptor(4), row[:4]).payload is None
        with pytest.raises(ValueError):
            CodedBlock.from_row(descriptor(4), row[:3])


class TestSourceBlocks:
    def test_systematic_unit_vectors(self):
        blocks = make_source_blocks(descriptor(3))
        for index, block in enumerate(blocks):
            expected = np.zeros(3, dtype=np.uint8)
            expected[index] = 1
            assert np.array_equal(block.coefficients, expected)

    def test_payload_rows_attached(self):
        payloads = np.arange(8, dtype=np.uint8).reshape(4, 2)
        blocks = make_source_blocks(descriptor(4), payloads)
        for index, block in enumerate(blocks):
            assert np.array_equal(block.payload, payloads[index])

    def test_blocks_own_a_copy_of_the_payloads(self):
        payloads = np.ones((3, 5), dtype=np.uint8)
        blocks = make_source_blocks(descriptor(3), payloads)
        payloads[:] = 9
        blocks[0].payload[:] = 7
        assert [b.payload.tolist() for b in blocks[1:]] == [[1] * 5] * 2
        assert [b.coefficients.tolist() for b in blocks[1:]] == [
            [0, 1, 0],
            [0, 0, 1],
        ]

    def test_payload_row_count_validated(self):
        with pytest.raises(ValueError):
            make_source_blocks(descriptor(4), np.zeros((3, 2), dtype=np.uint8))

    def test_abstract_block_count(self):
        assert len(make_abstract_blocks(descriptor(5))) == 5
        assert len(make_abstract_blocks(descriptor(5), count=2)) == 2
        with pytest.raises(ValueError):
            make_abstract_blocks(descriptor(5), count=-1)


class TestRecode:
    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            recode(descriptor(), block_rows([]), np.random.default_rng(0))

    def test_abstract_blocks_rejected(self):
        with pytest.raises(ValueError):
            recode(
                descriptor(),
                block_rows([CodedBlock(segment=descriptor())]),
                np.random.default_rng(0),
            )

    def test_block_rows_fuses_headers_and_payloads(self):
        payloads = np.arange(8, dtype=np.uint8).reshape(4, 2)
        blocks = make_source_blocks(descriptor(4), payloads)
        assert block_rows(blocks[1:3]).tolist() == [
            [0, 1, 0, 0, 2, 3],
            [0, 0, 1, 0, 4, 5],
        ]
        # Payload columns only when every block carries a payload.
        bare = CodedBlock(segment=descriptor(4), coefficients=[1, 1, 0, 0])
        assert block_rows([blocks[0], bare]).shape == (2, 4)

    def test_output_in_span_of_inputs(self):
        rng = np.random.default_rng(3)
        blocks = make_source_blocks(descriptor(4))[:2]
        out = recode(descriptor(4), block_rows(blocks), rng)
        # span of e0, e1: coordinates 2,3 must be zero
        assert out.coefficients[2] == 0 and out.coefficients[3] == 0
        assert out.coefficients.any()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_payload_consistent_with_coefficients(self, seed):
        """The emitted payload must equal the emitted header applied to the
        original payload rows — the composition law that makes multi-hop
        recoding decodable."""
        rng = np.random.default_rng(seed)
        size, payload_len = 4, 6
        originals = rng.integers(0, 256, size=(size, payload_len), dtype=np.uint8)
        segment = descriptor(size)
        blocks = make_source_blocks(segment, originals)
        # two recode hops
        intermediate = [
            recode(segment, block_rows(blocks[:3]), rng),
            recode(segment, block_rows(blocks[1:]), rng),
        ]
        out = recode(segment, block_rows(intermediate), rng)
        expected = np.zeros(payload_len, dtype=np.uint8)
        for j in range(size):
            scalar = int(out.coefficients[j])
            if scalar:
                gf256.vec_addmul(expected, originals[j], scalar)
        assert np.array_equal(out.payload, expected)

    def test_mixed_segments_rejected(self):
        blocks = [
            make_source_blocks(descriptor(2, segment_id=0))[0],
            make_source_blocks(descriptor(2, segment_id=1))[0],
        ]
        with pytest.raises(ValueError):
            recode(blocks[0].segment, block_rows(blocks), np.random.default_rng(0))

    def test_works_with_python_random(self):
        import random

        blocks = make_source_blocks(descriptor(3))
        out = recode(descriptor(3), block_rows(blocks), random.Random(5))
        assert out.coefficients.shape == (3,)


class TestEncodeFromSource:
    def test_row_count_validated(self):
        with pytest.raises(ValueError):
            encode_from_source(
                descriptor(4), np.zeros((3, 2), dtype=np.uint8),
                np.random.default_rng(0),
            )

    def test_payload_matches_coefficients(self):
        rng = np.random.default_rng(9)
        originals = rng.integers(0, 256, size=(3, 5), dtype=np.uint8)
        block = encode_from_source(descriptor(3), originals, rng)
        expected = np.zeros(5, dtype=np.uint8)
        for j in range(3):
            scalar = int(block.coefficients[j])
            if scalar:
                gf256.vec_addmul(expected, originals[j], scalar)
        assert np.array_equal(block.payload, expected)


class TestSegmentDecoder:
    def test_offer_wrong_segment_raises(self):
        decoder = SegmentDecoder(descriptor(2, segment_id=0))
        foreign = make_source_blocks(descriptor(2, segment_id=9))[0]
        with pytest.raises(ValueError):
            decoder.offer(foreign, now=0.0)

    def test_offer_abstract_block_raises(self):
        decoder = SegmentDecoder(descriptor(2))
        with pytest.raises(ValueError):
            decoder.offer(CodedBlock(segment=descriptor(2)), now=0.0)

    def test_completion_timestamp(self):
        decoder = SegmentDecoder(descriptor(2))
        blocks = make_source_blocks(descriptor(2))
        assert decoder.offer(blocks[0], now=1.0)
        assert decoder.completed_at is None
        assert decoder.offer(blocks[1], now=2.5)
        assert decoder.completed_at == 2.5
        assert decoder.is_complete

    def test_redundant_counted(self):
        decoder = SegmentDecoder(descriptor(2))
        block = make_source_blocks(descriptor(2))[0]
        decoder.offer(block, now=0.0)
        assert not decoder.offer(block, now=0.1)
        assert decoder.offered == 2
        assert decoder.redundant == 1

    def test_end_to_end_decode(self):
        rng = np.random.default_rng(4)
        originals = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        source_blocks = make_source_blocks(descriptor(5), originals)
        decoder = SegmentDecoder(descriptor(5))
        while not decoder.is_complete:
            coded = recode(
                descriptor(5), block_rows(source_blocks), rng, created_at=0.0
            )
            decoder.offer(coded, now=0.0)
        assert np.array_equal(decoder.decode(), originals)


class TestRankHelpers:
    def test_rank_of_empty(self):
        assert rank_of_blocks([]) == 0

    def test_rank_of_blocks_counts_independent(self):
        blocks = make_source_blocks(descriptor(3))
        assert rank_of_blocks(blocks) == 3
        assert rank_of_blocks(blocks[:2]) == 2

    def test_rank_of_abstract_raises(self):
        with pytest.raises(ValueError):
            rank_of_blocks([CodedBlock(segment=descriptor())])

    def test_innovation_probability_bounds(self):
        rng = np.random.default_rng(0)
        blocks = make_source_blocks(descriptor(3))
        empty_receiver = np.zeros((0, 3), dtype=np.uint8)
        p = innovation_probability(blocks, empty_receiver, rng, trials=50)
        assert p == 1.0  # receiver knows nothing: everything is innovative

    def test_innovation_probability_saturated_receiver(self):
        rng = np.random.default_rng(0)
        blocks = make_source_blocks(descriptor(2))
        full_receiver = np.eye(2, dtype=np.uint8)
        p = innovation_probability(blocks, full_receiver, rng, trials=50)
        assert p == 0.0

    def test_innovation_probability_validates_trials(self):
        with pytest.raises(ValueError):
            innovation_probability(
                make_source_blocks(descriptor(2)),
                np.zeros((0, 2), dtype=np.uint8),
                np.random.default_rng(0),
                trials=0,
            )

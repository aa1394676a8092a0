"""Tests for statistics records and the block codec."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.stats.records import (
    RECORD_SIZE,
    RecordCodec,
    StatsRecord,
    synthesize_records,
)


def record(**overrides):
    defaults = dict(
        timestamp=123.5,
        peer_id=7,
        session_id=3,
        buffer_level=12.5,
        download_rate=800.0,
        upload_rate=300.0,
        loss_fraction=0.01,
        playback_delay=1.5,
        neighbor_count=25,
        rebuffering=False,
    )
    defaults.update(overrides)
    return StatsRecord(**defaults)


record_strategy = st.builds(
    StatsRecord,
    timestamp=st.floats(0, 1e9, allow_nan=False, allow_infinity=False),
    peer_id=st.integers(0, 2**32 - 1),
    session_id=st.integers(0, 2**32 - 1),
    buffer_level=st.floats(0, 1e4, allow_nan=False, width=32),
    download_rate=st.floats(0, 1e6, allow_nan=False, width=32),
    upload_rate=st.floats(0, 1e6, allow_nan=False, width=32),
    loss_fraction=st.floats(0, 1, allow_nan=False, width=32),
    playback_delay=st.floats(0, 1e3, allow_nan=False, width=32),
    neighbor_count=st.integers(0, 2**16 - 1),
    rebuffering=st.booleans(),
)


class TestStatsRecord:
    def test_fixed_size(self):
        assert len(record().to_bytes()) == RECORD_SIZE == 40

    def test_roundtrip(self):
        original = record(rebuffering=True)
        assert StatsRecord.from_bytes(original.to_bytes()) == original

    @given(record_strategy)
    def test_roundtrip_property(self, original):
        assert StatsRecord.from_bytes(original.to_bytes()) == original

    def test_from_bytes_wrong_length(self):
        with pytest.raises(ValueError):
            StatsRecord.from_bytes(b"\x00" * 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            record(loss_fraction=1.5)
        with pytest.raises(ValueError):
            record(buffer_level=-1.0)
        with pytest.raises(ValueError):
            record(peer_id=2**32)
        with pytest.raises(ValueError):
            record(neighbor_count=2**16)
        with pytest.raises(ValueError):
            record(timestamp=float("nan"))


class TestRecordCodec:
    def test_records_per_block(self):
        codec = RecordCodec(block_size=256)
        assert codec.records_per_block == (256 - 4) // 40 == 6

    def test_block_size_too_small(self):
        with pytest.raises(ValueError):
            RecordCodec(block_size=40)

    def test_pack_unpack_roundtrip(self):
        codec = RecordCodec(block_size=128)
        records = [record(peer_id=i) for i in range(3)]
        block = codec.pack_block(records)
        assert block.shape == (128,)
        assert block.dtype == np.uint8
        assert codec.unpack_block(block) == records

    def test_pack_too_many_raises(self):
        codec = RecordCodec(block_size=128)  # capacity 3
        with pytest.raises(ValueError):
            codec.pack_block([record()] * 4)

    def test_pack_empty_block(self):
        codec = RecordCodec()
        assert codec.unpack_block(codec.pack_block([])) == []

    def test_pack_stream_splits(self):
        codec = RecordCodec(block_size=128)  # 3 per block
        records = [record(peer_id=i) for i in range(8)]
        blocks = codec.pack_stream(records)
        assert len(blocks) == 3
        assert codec.unpack_stream(blocks) == records

    def test_pack_stream_empty(self):
        codec = RecordCodec()
        blocks = codec.pack_stream([])
        assert len(blocks) == 1
        assert codec.unpack_stream(blocks) == []

    def test_unpack_wrong_size(self):
        codec = RecordCodec(block_size=128)
        with pytest.raises(ValueError):
            codec.unpack_block(np.zeros(64, dtype=np.uint8))

    def test_unpack_corrupt_count(self):
        codec = RecordCodec(block_size=128)
        block = codec.pack_block([record()])
        block[0:4] = 255  # absurd record count
        with pytest.raises(ValueError):
            codec.unpack_block(block)

    def test_codec_survives_gf256_coding(self):
        """Records packed into blocks must survive an encode/decode cycle
        through the RLNC layer — the end-to-end telemetry pipeline."""
        from repro.coding.block import SegmentDescriptor, make_source_blocks
        from repro.coding.rlnc import SegmentDecoder, block_rows, recode

        codec = RecordCodec(block_size=128)
        records = [record(peer_id=i, rebuffering=i % 2 == 0) for i in range(9)]
        payload_blocks = codec.pack_stream(records)  # 3 blocks
        seg = SegmentDescriptor(
            segment_id=0, source_peer=0, size=len(payload_blocks), injected_at=0.0
        )
        source = make_source_blocks(seg, np.stack(payload_blocks))
        decoder = SegmentDecoder(seg)
        rows = block_rows(source)
        rng = np.random.default_rng(0)
        while not decoder.is_complete:
            decoder.offer(recode(seg, rows, rng), now=0.0)
        recovered = codec.unpack_stream(list(decoder.decode()))
        assert recovered == records


class TestSynthesize:
    def test_count_and_interval(self):
        rng = random.Random(0)
        records = synthesize_records(rng, peer_id=4, session_id=1, count=5,
                                     start_time=10.0, interval=2.0)
        assert len(records) == 5
        assert [r.timestamp for r in records] == [10.0, 12.0, 14.0, 16.0, 18.0]
        assert all(r.peer_id == 4 for r in records)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError):
            synthesize_records(random.Random(0), 1, 1, -1)

    def test_degraded_records_look_degraded(self):
        rng = random.Random(1)
        healthy = synthesize_records(rng, 1, 1, 50, degraded=False)
        degraded = synthesize_records(rng, 1, 1, 50, degraded=True)
        mean_loss_h = sum(r.loss_fraction for r in healthy) / 50
        mean_loss_d = sum(r.loss_fraction for r in degraded) / 50
        assert mean_loss_d > mean_loss_h * 5
        assert any(r.rebuffering for r in degraded)
        assert not any(r.rebuffering for r in healthy)

    def test_all_serializable(self):
        rng = random.Random(2)
        for rec in synthesize_records(rng, 1, 1, 20, degraded=True):
            assert StatsRecord.from_bytes(rec.to_bytes()) == rec

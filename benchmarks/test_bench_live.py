"""Microbenchmarks of the live runtime's wire path.

The numbers a deployer asks before sizing a swarm: how fast is the frame
codec (sans-IO), how many framed request/response round trips per second
does one loopback TCP connection sustain, and how fast does a collector
decode a segment whose blocks arrive over a real socket.  Codec benches
use normal multi-round timing; the socket benches batch many operations
per timed call so loop startup never dominates.
"""

import asyncio

import numpy as np

from repro.coding.block import SegmentDescriptor, make_source_blocks
from repro.coding.rlnc import SegmentDecoder, block_rows, recode
from repro.live import ports, wire
from repro.live.framing import FrameDecoder, encode_frame
from repro.live.transport import FramedConnection

#: Socket benches amortize the event-loop entry over this many operations.
BATCH = 200


def test_bench_frame_encode_decode(benchmark):
    """Sans-IO frames/s: encode + decode one 1 KiB-payload frame."""
    header = {"type": "block", "segment": {"segment_id": 7, "size": 32}}
    payload = bytes(range(256)) * 4

    def round_trip():
        blob = encode_frame(header, payload)
        return FrameDecoder().feed(blob)[0]

    frame = benchmark(round_trip)
    assert frame.payload == payload


def test_bench_block_wire_round_trip(benchmark):
    """CodedBlock -> frame pair -> CodedBlock (s=32, 256 B rows)."""
    descriptor = SegmentDescriptor(
        segment_id=1, source_peer=0, size=32, injected_at=0.0
    )
    rng = np.random.default_rng(0)
    payloads = rng.integers(0, 256, size=(32, 256), dtype=np.uint8)
    block = make_source_blocks(descriptor, payloads)[0]
    digest = wire.payload_digest(payloads.tobytes())

    def round_trip():
        header, data = wire.block_to_wire(wire.MSG_BLOCK, block, digest)
        return wire.block_from_wire(header, data)

    back = benchmark(round_trip)
    assert np.array_equal(back.payload, block.payload)


def test_bench_loopback_request_response(benchmark):
    """Framed request/response round trips over one loopback TCP socket."""

    async def echo(reader, writer):
        conn = FramedConnection(reader, writer)
        while True:
            frame = await conn.read()
            if frame is None:
                break
            await conn.send({"type": "echo"}, frame.payload)
        await conn.close()

    loop = asyncio.new_event_loop()
    try:
        server, port = loop.run_until_complete(ports.start_server(echo))
        conn = loop.run_until_complete(
            FramedConnection.open("127.0.0.1", port)
        )
        payload = bytes(64)

        async def batch():
            for _ in range(BATCH):
                await conn.request({"type": "ping"}, payload)
            return BATCH

        def timed():
            return loop.run_until_complete(batch())

        assert benchmark(timed) == BATCH
        loop.run_until_complete(conn.close())
        server.close()
        loop.run_until_complete(server.wait_closed())
    finally:
        loop.close()


def test_bench_decode_on_wire(benchmark):
    """Collector-side decode throughput with blocks arriving by socket.

    One 32-block segment (256 B rows) is recoded server-side per request,
    shipped as PULL-BLOCK frames, and fed to a fresh SegmentDecoder until
    complete — the live pull path minus the protocol bookkeeping.
    """
    descriptor = SegmentDescriptor(
        segment_id=9, source_peer=0, size=32, injected_at=0.0
    )
    rng = np.random.default_rng(3)
    payloads = rng.integers(0, 256, size=(32, 256), dtype=np.uint8)
    rows = block_rows(make_source_blocks(descriptor, payloads))
    digest = wire.payload_digest(payloads.tobytes())

    async def serve(reader, writer):
        conn = FramedConnection(reader, writer)
        while True:
            frame = await conn.read()
            if frame is None:
                break
            coded = recode(descriptor, rows, rng)
            header, data = wire.block_to_wire(
                wire.MSG_PULL_BLOCK, coded, digest
            )
            await conn.send(header, data)
        await conn.close()

    loop = asyncio.new_event_loop()
    try:
        server, port = loop.run_until_complete(ports.start_server(serve))
        conn = loop.run_until_complete(
            FramedConnection.open("127.0.0.1", port)
        )

        async def decode_segment():
            decoder = SegmentDecoder(descriptor)
            pulls = 0
            while not decoder.is_complete:
                reply = await conn.request({"type": wire.MSG_PULL})
                block = wire.block_from_wire(reply.header, reply.payload)
                decoder.offer(block, 0.0)
                pulls += 1
            rows = decoder.decode()
            assert wire.payload_digest(rows.tobytes()) == digest
            return pulls

        def timed():
            return loop.run_until_complete(decode_segment())

        pulls = benchmark(timed)
        assert pulls >= 32
        loop.run_until_complete(conn.close())
        server.close()
        loop.run_until_complete(server.wait_closed())
    finally:
        loop.close()

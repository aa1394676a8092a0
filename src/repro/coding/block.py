"""Data model for segments and coded blocks.

Sec. 2 of the paper groups the statistics blocks generated at each peer into
*segments* of ``s`` blocks and spreads random linear combinations of each
segment's blocks across the network.  This module defines the immutable
description of a segment (:class:`SegmentDescriptor`) and the unit that
actually moves between peers and servers (:class:`CodedBlock`).

A coded block carries its encoding vector over the segment's *original*
blocks ("the coding coefficients used to encode original blocks to x are
embedded in the header of the coded block"), so any holder can re-encode
without global coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.coding import gf256
from repro.coding.gf256 import Vector


@dataclass(frozen=True)
class SegmentDescriptor:
    """Immutable identity and metadata of one segment.

    Attributes:
        segment_id: Globally unique integer id.
        source_peer: Slot id of the peer that generated the segment.
        size: Number of original blocks ``s`` grouped into the segment.
        injected_at: Simulation time of injection.
        generation: Generation counter of the source peer (increments when a
            churn replacement reuses the slot), so statistics of departed
            peers remain attributable.
    """

    segment_id: int
    source_peer: int
    size: int
    injected_at: float
    generation: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"segment size must be >= 1, got {self.size}")

    def __str__(self) -> str:
        return (
            f"segment {self.segment_id} (peer {self.source_peer}"
            f"@g{self.generation}, s={self.size}, t={self.injected_at:.3f})"
        )


class CodedBlock:
    """One coded block of a segment.

    ``coefficients`` is the encoding vector over the segment's original
    blocks; ``payload`` is the coded data bytes.  Both are optional because
    the abstract simulation mode tracks block *counts* only (the paper's
    bipartite-graph view, where a block is just an edge); the full-RLNC mode
    fills both in.

    Identity (not value) equality is deliberate: two blocks with equal
    coefficients are still distinct objects occupying distinct buffer slots.

    A hand-written ``__slots__`` class (``dataclass(slots=True)`` needs
    Python 3.10): every buffered block is one small object with no
    per-instance ``__dict__``.

    Attributes beyond the constructor's data:

    - ``alive`` — liveness flag flipped by TTL expiry and churn; lets stale
      deletion events detect that their target is already gone.
    - ``polluted`` — fault-injection tag: the block was emitted (or
      re-encoded from a holding contaminated) by a polluting peer.  In RLNC
      mode the coefficient header is additionally zeroed, so GF(2^8) rank
      detection rejects the block without consulting this flag; abstract
      mode relies on the tag alone (the tagged-block approximation).
    - ``holder`` — topology slot of the peer buffering the block (-1
      before it is first buffered).  A slot, never a peer reference: a
      live block always sits in the slot's current occupant, and a
      back-reference would make every churned peer cyclic garbage.
    """

    __slots__ = (
        "segment",
        "coefficients",
        "payload",
        "created_at",
        "alive",
        "polluted",
        "holder",
    )

    def __init__(
        self,
        segment: SegmentDescriptor,
        coefficients: Optional[Vector] = None,
        payload: Optional[Vector] = None,
        created_at: float = 0.0,
        alive: bool = True,
        polluted: bool = False,
    ) -> None:
        self.segment = segment
        self.coefficients: Optional[Vector] = None
        if coefficients is not None:
            self.coefficients = gf256.as_vector(coefficients)
            if self.coefficients.shape != (segment.size,):
                raise ValueError(
                    f"coefficient vector has shape {self.coefficients.shape}, "
                    f"expected ({segment.size},)"
                )
        self.payload = None if payload is None else gf256.as_vector(payload)
        self.created_at = created_at
        self.alive = alive
        self.polluted = polluted
        self.holder = -1

    @classmethod
    def from_row(
        cls, segment: SegmentDescriptor, row: Vector, created_at: float = 0.0
    ) -> "CodedBlock":
        """Wrap one fused ``[coefficients | payload]`` row without copying.

        ``coefficients`` and ``payload`` become views of *row*, so the block
        takes the row over: the caller must not share or reuse it.  A row
        exactly ``segment.size`` wide carries no payload.
        """
        size = segment.size
        if row.ndim != 1 or row.shape[0] < size:
            raise ValueError(
                f"fused row has shape {row.shape}, expected at least ({size},)"
            )
        block = cls(segment, created_at=created_at)
        block.coefficients = row[:size]
        block.payload = row[size:] if row.shape[0] > size else None
        return block

    @property
    def is_coded(self) -> bool:
        """True when the block carries an explicit encoding vector."""
        return self.coefficients is not None

    def __repr__(self) -> str:
        kind = "rlnc" if self.is_coded else "abstract"
        return (
            f"CodedBlock(segment={self.segment.segment_id}, kind={kind}, "
            f"t={self.created_at:.3f}, alive={self.alive})"
        )


def make_source_blocks(
    segment: SegmentDescriptor,
    payloads: Optional[Vector] = None,
    created_at: Optional[float] = None,
) -> List[CodedBlock]:
    """Create the ``s`` systematic (identity-coded) blocks of a new segment.

    When the source injects a segment it holds the original blocks
    themselves; in coded form those are unit coefficient vectors.  *payloads*
    is an optional ``(s, payload_len)`` array of original data rows.
    """
    size = segment.size
    width = size
    if payloads is not None:
        payloads = np.atleast_2d(np.asarray(payloads))
        if payloads.shape[0] != size:
            raise ValueError(
                f"expected {size} payload rows, got {payloads.shape[0]}"
            )
        width += payloads.shape[1]
    when = segment.injected_at if created_at is None else created_at
    blocks: List[CodedBlock] = []
    for index in range(size):
        # Each block owns its own fused [unit vector | payload] row, the
        # only copy of its payload, so it frees independently of the others.
        row = np.zeros(width, dtype=np.uint8)
        row[index] = 1
        if payloads is not None:
            row[size:] = payloads[index]
        blocks.append(CodedBlock.from_row(segment, row, when))
    return blocks


def make_abstract_blocks(
    segment: SegmentDescriptor,
    count: Optional[int] = None,
    created_at: Optional[float] = None,
) -> List[CodedBlock]:
    """Create *count* coefficient-free blocks (edges of the bipartite graph)."""
    n = segment.size if count is None else count
    if n < 0:
        raise ValueError(f"block count must be >= 0, got {n}")
    when = segment.injected_at if created_at is None else created_at
    return [CodedBlock(segment=segment, created_at=when) for _ in range(n)]

"""Network-coding substrate: GF(2^8), linear algebra, blocks, RLNC codec."""

from repro.coding.block import (
    CodedBlock,
    SegmentDescriptor,
    make_abstract_blocks,
    make_source_blocks,
)
from repro.coding.linalg import IncrementalDecoder, invert, is_invertible, rank, rref, solve
from repro.coding.rlnc import (
    SegmentDecoder,
    block_rows,
    encode_from_source,
    innovation_probability,
    rank_of_blocks,
    recode,
)

__all__ = [
    "CodedBlock",
    "SegmentDescriptor",
    "make_abstract_blocks",
    "make_source_blocks",
    "IncrementalDecoder",
    "invert",
    "is_invertible",
    "rank",
    "rref",
    "solve",
    "SegmentDecoder",
    "block_rows",
    "encode_from_source",
    "innovation_probability",
    "rank_of_blocks",
    "recode",
]

"""Fixed partitions of batch work.

Batch work is split into the same fixed-size chunks on every run and
processed in chunk order. Where a chunk draws random numbers it draws from
its own (seed, chunk) stream, so results depend only on the inputs and the
seed.
"""

from __future__ import annotations


def chunk_slices(n_items: int, chunk_size: int) -> list[slice]:
    """Fixed partition of range(n_items) into consecutive slices."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return [slice(i, min(i + chunk_size, n_items)) for i in range(0, n_items, chunk_size)]

"""Bitmask helpers for vertex sets.

A simplex on labels 0..63 is stored as an int whose set bits are its
vertices, so subset tests, intersections and complements are single
machine operations.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

MAX_LABELS = 64


def mask_from(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex labels into a bitmask.

    Rejects empty simplices and labels outside 0..63.
    """
    mask = 0
    for v in vertices:
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValueError(f"vertex label {v!r} is not an integer")
        if v < 0 or v >= MAX_LABELS:
            raise ValueError(f"vertex label {v} out of range 0..{MAX_LABELS - 1}")
        mask |= 1 << v
    if mask == 0:
        raise ValueError("a simplex must contain at least one vertex")
    return mask


def vertices_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of vertex labels."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the single-bit masks of a bitmask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def nonempty_submasks(mask: int) -> list[int]:
    """All nonempty sub-bitmasks of `mask` (including `mask` itself)."""
    bits = list(iter_bits(mask))
    out = []
    for r in range(1, len(bits) + 1):
        for combo in combinations(bits, r):
            sub = 0
            for b in combo:
                sub |= b
            out.append(sub)
    return out

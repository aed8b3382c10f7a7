"""Face sets on at most 16 vertices held as one integer of 2**n bits.

Bit m of a face set is set iff the vertex set with bitmask m is a face, so a
question about every face at once costs about n big-integer operations (the
broadword style of D. E. Knuth, TAOCP 4A, section 7.1.3).  Dropping vertex v
from every set that has it is a right shift by 2**v, and complementing every
set reverses the bit order.  Face sets never hold bit 0, the empty set.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Collection

MAX_VERTICES = 16  # 8 KiB per face set

_FLAG_DIGITS = bytes(b"01"[byte == 1] for byte in range(256))  # 1 -> "1", any other byte -> "0"


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(has, size) on n vertices: has[v] holds the sets containing vertex v,
    size[s] the sets of s vertices."""
    if n > MAX_VERTICES:
        raise ValueError(f"face sets hold at most {MAX_VERTICES} vertices, not {n}")
    every = (1 << (1 << n)) - 1
    # has[v] repeats 2**v clear bits then 2**v set bits
    has = tuple(every // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v)) for v in range(n))
    size = [1]
    for v in range(n):
        size = [without | with_ << (1 << v) for without, with_ in zip(size + [0], [0] + size)]
    return has, tuple(size)


def face_set(masks: Collection[int], n: int) -> int:
    """The set of the given masks.  ValueError if one is empty or negative,
    IndexError if one has a label of n or more."""
    _tables(n)  # refuses n above the cap
    if masks and min(masks) < 1:
        raise ValueError("a face must be a nonempty vertex set")
    flags = bytearray(1 << n)
    for m in masks:
        flags[m] = 1
    return from_flags(flags)


def from_flags(flags: bytes) -> int:
    """The set of the m with flags[m] == 1; every other byte value means absent."""
    return int(flags.translate(_FLAG_DIGITS)[::-1], 2)


def of_size(s: int, n: int) -> int:
    """Every s-vertex subset of 0..n-1."""
    size = _tables(n)[1]
    return size[s] if 0 <= s <= n else 0


def shadow(x: int, n: int) -> int:
    """The sets one vertex short of a member of x, the empty set included."""
    below = 0
    for v, has_v in enumerate(_tables(n)[0]):
        below |= (x & has_v) >> (1 << v)
    return below


def is_closed(faces: int, n: int) -> bool:
    """Every nonempty subset of a face is a face."""
    return shadow(faces, n) & ~faces <= 1


def facets(faces: int, n: int) -> int:
    """The faces in no larger face."""
    return faces & ~shadow(faces, n)


def ridge_multiplicity(tops: int, n: int) -> tuple[int, int, int]:
    """The sets lying in at least 1, 2 and 3 members of `tops` that have one
    vertex more: bit-sliced saturating counters over the n shifts."""
    once = twice = thrice = 0
    for v, has_v in enumerate(_tables(n)[0]):
        below = (tops & has_v) >> (1 << v)
        thrice |= twice & below
        twice |= once & below
        once |= below
    return once, twice, thrice


def rev(x: int, n: int) -> int:
    """Move bit m to bit (2**n - 1) ^ m: the complement of every set in x."""
    return int(f"{x:0{1 << n}b}"[::-1], 2)


def is_complementary(faces: int, n: int) -> bool:
    """Exactly one of each complementary pair of nonempty proper subsets of
    0..n-1 is a face."""
    full = (1 << n) - 1
    proper = ((1 << (1 << n)) - 1) & ~1 & ~(1 << full)
    return (faces ^ rev(faces, n)) & proper == proper

"""Bit-vector helpers shared by every solver.

Vertex sets and subset-indexed tables are plain Python integers used as
bit vectors: bit ``v`` of a vertex-set mask is set when vertex ``v`` is a
member, and bit ``d`` of a table over a size-``n`` universe is set when
the subset whose characteristic value is ``d`` is present.  Arbitrary
precision integers make unions, intersections and shifts run at machine
speed regardless of width.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

_WEIGHT_MASK_CACHE: dict[int, List[int]] = {}
_LACK_MASKS: List[int] = []  # for the widest universe asked for so far


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> List[int]:
    """Set bit positions of ``mask`` as an ascending list."""
    return list(iter_bits(mask))


def mask_of(vertices: Iterable[int]) -> int:
    """Bit vector with exactly the given positions set."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def lowest_bit(mask: int) -> int:
    """Index of the least significant set bit (mask must be nonzero)."""
    return (mask & -mask).bit_length() - 1


def weight_masks(n: int) -> List[int]:
    """Hamming-weight layer masks for a size-``n`` universe.

    Entry ``i`` is a ``2**n``-bit integer whose bit ``d`` is set exactly
    when ``d`` has popcount ``i``.  Built by doubling: the table for
    ``n`` splits into the table for ``n - 1`` (high bit of ``d`` clear)
    and a shifted copy one weight down (high bit set).  Results are
    cached per ``n``.
    """
    if n in _WEIGHT_MASK_CACHE:
        return _WEIGHT_MASK_CACHE[n]
    masks = [1]
    for m in range(1, n + 1):
        half = 1 << (m - 1)
        prev = masks
        masks = [0] * (m + 1)
        for i in range(m + 1):
            lo = prev[i] if i < len(prev) else 0
            hi = (prev[i - 1] << half) if i >= 1 else 0
            masks[i] = lo | hi
    _WEIGHT_MASK_CACHE[n] = masks
    return masks


def lack_masks(n: int) -> List[int]:
    """Vertex-absence masks for a universe of at least ``n`` vertices.

    Entry ``i`` has bit ``d`` set exactly when bit ``i`` of ``d`` is
    clear: runs of ``2**i`` ones and zeros.  Only the widest list asked
    for is kept; ``&`` with a ``2**n``-bit table costs that width.
    """
    if len(_LACK_MASKS) >= n:
        return _LACK_MASKS
    size = 1 << n
    masks = []
    for i in range(n):
        pattern, width = (1 << (1 << i)) - 1, 2 << i
        while width < size:
            pattern |= pattern << width
            width <<= 1
        masks.append(pattern)
    _LACK_MASKS[:] = masks
    return _LACK_MASKS

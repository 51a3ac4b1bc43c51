"""Exact cd-chromatic number via set-family polynomial powers.

The engine represents a family of vertex subsets as one ``2**n``-bit
integer (:class:`CoefficientTable`): bit ``d`` is set when the subset
with characteristic value ``d`` belongs to the family.  The product of
two tables keeps exactly the disjoint unions of their members, and the
smallest power of the color-class family that contains the full vertex
set is the cd-chromatic number.

The product is computed per Hamming-weight layer: multiplying the
weight-``i`` slice of one table by a single monomial ``z**s`` is a left
shift by ``s``, and masking the result to weight ``i + j`` keeps exactly
the carry-free sums, which are the unions of disjoint pairs.

Powers are built with the top-vertex rule of set partitioning
(Björklund, Husfeldt and Koivisto): a member ``T`` of power ``a + 1`` is
a union of ``a + 1`` disjoint family members, and the one holding
``max(T)`` is some ``F`` whose rest ``S`` is a member of power ``a``
lying wholly below ``max(F)``.  Conversely every such pair is disjoint
and its union is in power ``a + 1``.  So ``power(a) * family`` only
needs the pairs with ``max(F) > max(S)``: for each ``F`` the power's
slice is cut to its low ``2**max(F)`` bits before the shift, and most
shifts are far narrower than the ``2**n``-bit table.  The tables come
out the same bit for bit.

The search meets in the middle: the full set lies in power ``a + b``
exactly when some member ``S`` of power ``a`` has its complement in
power ``b``, i.e. when power ``a`` meets the complemented table of power
``b`` (bit ``d`` moved to bit ``full ^ d``, a reversal of all ``2**n``
bits).  Testing ``k = 2a - 1`` and ``k = 2a`` right after power ``a`` is
built finds ``q`` with only ``ceil(q/2) - 1`` products, the cheap early
ones.  The witness is peeled separately inside each half.

:func:`cd_chromatic_bruteforce` is the independent validation oracle: a
direct search over vertex partitions that never touches the tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .bits import iter_bits, lowest_bit, weight_masks
from .coloring import CdColoring, make_coloring, solve_per_component
from .errors import CapacityError
from .graph import Graph

DEFAULT_EXACT_CAP = 26

BRUTEFORCE_CAP = 9

# byte value -> the same byte with its 8 bits in reverse order
_BIT_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _set_positions(bits: int) -> List[int]:
    """Set bit positions of a table, ascending, in time linear in its width.

    Unlike :func:`bits.bit_list`, which copies the whole integer per
    member, this scans one string; it pays off on ``2**n``-bit tables.
    """
    digits = bin(bits)[:1:-1]
    out: List[int] = []
    pos = digits.find("1")
    while pos >= 0:
        out.append(pos)
        pos = digits.find("1", pos + 1)
    return out


class CoefficientTable:
    """Boolean table over the subsets of an ``n``-element universe.

    ``_power_of`` is set to ``r`` only by :func:`star_product`, on a
    table it built as a power of ``r``.  Like the slice cache, it assumes
    that a table's bits never change after construction.
    """

    __slots__ = ("n", "bits", "_power_of", "_slices", "_members")

    def __init__(self, n: int, bits: int = 0):
        if n < 0:
            raise ValueError("universe size must be non-negative")
        if bits >> (1 << n):
            raise ValueError("table has entries beyond 2**n")
        self.n = n
        self.bits = bits
        self._power_of: Optional["CoefficientTable"] = None
        self._slices: Optional[List[int]] = None
        self._members: Dict[int, List[int]] = {}

    def contains(self, subset_mask: int) -> bool:
        return bool((self.bits >> subset_mask) & 1)

    def member_count(self) -> int:
        return self.bits.bit_count()

    def members(self) -> List[int]:
        """All present subset masks, ascending."""
        return _set_positions(self.bits)

    def slice(self, weight: int) -> int:
        """Bits of the table restricted to subsets of the given size."""
        if self._slices is None:
            masks = weight_masks(self.n)
            self._slices = [self.bits & masks[i] for i in range(self.n + 1)]
        return self._slices[weight]

    def slice_members(self, weight: int) -> List[int]:
        if weight not in self._members:
            self._members[weight] = _set_positions(self.slice(weight))
        return self._members[weight]

    def complement(self) -> "CoefficientTable":
        """Table of the complements: bit ``d`` moves to bit ``full ^ d``.

        That reverses all ``2**n`` bits: reverse the byte order (write
        big-endian, read little-endian) and the bits inside each byte;
        below ``n = 3`` the padding of the single byte is shifted out.
        """
        size = 1 << self.n
        nbytes = (size + 7) // 8
        raw = self.bits.to_bytes(nbytes, "big").translate(_BIT_REVERSE)
        bits = int.from_bytes(raw, "little") >> (8 * nbytes - size)
        return CoefficientTable(self.n, bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CoefficientTable)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __repr__(self) -> str:
        return f"CoefficientTable(n={self.n}, members={self.member_count()})"


def build_color_class_family(g: Graph, cap: int = DEFAULT_EXACT_CAP) -> CoefficientTable:
    """Table of all candidate color classes of ``g``.

    A nonempty set qualifies when it is independent and fits inside the
    closed neighborhood of some vertex.  Built per vertex ``y`` by
    growing the independent subsets of ``N[y]`` one element at a time;
    duplicates collapse in the table.
    """
    if g.n > cap:
        raise CapacityError(
            f"exact solver capacity is {cap} vertices, got {g.n}; raise the cap"
        )
    table = 0
    for y in range(g.n):
        sets = [0]
        for v in iter_bits(g.closed(y)):
            av = g.adj[v]
            sets += [s | (1 << v) for s in sets if not (av & s)]
        for s in sets:
            if s:
                table |= 1 << s
    return CoefficientTable(g.n, table)


def _top_product(p: CoefficientTable, r: CoefficientTable) -> int:
    """Bits of the unions ``S | F`` of a ``p``-member ``S`` and a disjoint
    ``r``-member ``F`` with ``max(F) > max(S)``, where ``max`` of the
    empty set is -1; the empty set is kept when both tables hold it.

    For weights ``(i, j)`` one of two loops runs.  The narrow loop walks
    ``r``'s members ``F`` in ascending order and shifts ``p``'s slice cut
    to its low ``2**max(F)`` bits, so the accumulator stays under
    ``2**(max(F) + 2)`` bits; it touches about ``2**(max(F) + 1)`` bits
    per ``F``.  The wide loop walks ``p``'s members ``S`` and shifts
    ``r``'s slice with its low ``2**(max(S) + 1)`` bits cleared, about
    ``2**n`` bits per ``S``.  The cheaper one is taken.
    """
    n = p.n
    masks = weight_masks(n)
    out = p.bits & r.bits & 1
    # narrow[j]: bits the narrow loop touches for r's weight-j members
    narrow = [
        sum(1 << f.bit_length() for f in r.slice_members(j)) for j in range(n + 1)
    ]
    for i in range(n + 1):
        ps = p.bits & masks[i]  # not cached: a power is multiplied once
        ci = ps.bit_count()
        if not ci:
            continue
        members = None
        cuts: Dict[int, int] = {}  # max vertex m -> p's slice below bit 2**m
        for j in range(1, n + 1 - i):
            if not narrow[j]:
                continue
            acc = 0
            if narrow[j] <= ci << n:
                for f in r.slice_members(j):
                    m = f.bit_length() - 1
                    cut = cuts.get(m)
                    if cut is None:
                        cut = cuts[m] = ps & ((1 << (1 << m)) - 1)
                    acc |= cut << f
            else:
                if members is None:
                    members = _set_positions(ps)
                other = r.slice(j)
                top = -1
                for s in members:
                    if s.bit_length() != top:
                        top = s.bit_length()  # max(S) + 1
                        high = other >> (1 << top) << (1 << top)
                    acc |= high << s
            out |= acc & masks[i + j]
    return out


def star_product(p: CoefficientTable, r: CoefficientTable) -> CoefficientTable:
    """Table of all unions of a ``p``-member and a disjoint ``r``-member.

    Two disjoint members differ in their top vertex unless both are
    empty, so the product is ``_top_product(p, r) | _top_product(r, p)``.
    When ``p`` is ``r`` or a power of ``r``, the first term alone is the
    product: a union of disjoint ``r``-members is also the union of the
    member holding its top vertex and a lower union of the others.  Such
    a result is marked as a power of ``r``, so folding ``star_product``
    over copies of one table takes the one-direction path throughout.
    """
    if p.n != r.n:
        raise ValueError(f"universe size mismatch: {p.n} != {r.n}")
    if r is p or p._power_of is r:
        out = CoefficientTable(p.n, _top_product(p, r))
        out._power_of = r
        return out
    return CoefficientTable(p.n, _top_product(p, r) | _top_product(r, p))


def _dominator_of(g: Graph, class_mask: int) -> int:
    for y in range(g.n):
        if not class_mask & ~g.closed(y):
            return y
    raise AssertionError("class has no dominator")


def _peel(
    members: List[int], powers: List[CoefficientTable], want: int, parts: int
) -> List[int]:
    """Split ``want``, a member of ``powers[parts]``, into ``parts`` family sets.

    At each level peel the lexicographically smallest family member
    whose removal stays reachable one power lower; ``powers[0]`` holds
    only the empty set.  Deterministic by construction.
    """
    class_masks: List[int] = []
    for level in range(parts, 0, -1):
        lower = powers[level - 1]
        for s in members:
            if not s & ~want and lower.contains(want ^ s):
                class_masks.append(s)
                want ^= s
                break
        else:
            raise AssertionError("witness peel failed")
    return class_masks


def _exact_component(g: Graph, comp: int, cap: int) -> Tuple[int, CdColoring]:
    """Solve ``comp`` on a compact copy, whose subsets the tables index."""
    sub, ids = g.induced(comp)
    family = build_color_class_family(sub, cap=cap)
    full = sub.full_mask
    powers = [CoefficientTable(sub.n, 1), family]  # powers[a] is power a
    prev_comp = 1 << full  # complement of power 0 = {empty set}
    while True:
        a = len(powers) - 1
        cur = powers[a].bits
        b, meet = a - 1, cur & prev_comp  # k = 2a - 1
        if not meet:
            prev_comp = powers[a].complement().bits
            b, meet = a, cur & prev_comp  # k = 2a
        if meet:
            break
        if 2 * a >= sub.n:
            raise AssertionError("no family partition covers the component")
        powers.append(star_product(powers[a], family))
    s = lowest_bit(meet)
    members = family.members()
    class_masks = _peel(members, powers, s, a) + _peel(members, powers, full ^ s, b)
    coloring = make_coloring(class_masks, [_dominator_of(sub, c) for c in class_masks])
    return a + b, coloring.relabeled(ids)


def cd_chromatic_exact(
    g: Graph, cap: int = DEFAULT_EXACT_CAP
) -> Tuple[int, CdColoring]:
    """Exact cd-chromatic number with a certifying coloring.

    Solved independently per connected component (the answers add) and
    capped at ``cap`` vertices per component with more than one vertex;
    each table costs ``2**n`` bits of memory.  The empty graph has q = 0.
    """
    return solve_per_component(g, lambda g, comp: _exact_component(g, comp, cap))


# -- brute-force oracle -------------------------------------------------------


def _bruteforce_component(g: Graph, comp: int) -> Tuple[int, CdColoring]:
    """Minimum partition of ``comp`` into dominated independent sets, on a copy.

    Vertices are assigned in index order to an existing block or a fresh
    one; a block tracks the mask of vertices whose closed neighborhood
    still covers it, so dead branches prune early.
    """
    sub, ids = g.induced(comp)
    n = sub.n
    closed = [sub.closed(v) for v in range(n)]
    best_count = n + 1
    best: List[Tuple[int, int]] = []
    blocks: List[Tuple[int, int]] = []  # (member mask, candidate dominator mask)

    def assign(v: int) -> None:
        nonlocal best_count, best
        if len(blocks) >= best_count:
            return
        if v == n:
            best_count = len(blocks)
            best = list(blocks)
            return
        bit = 1 << v
        for idx, (members, cands) in enumerate(blocks):
            if sub.adj[v] & members:
                continue
            new_cands = cands & closed[v]
            if not new_cands:
                continue
            blocks[idx] = (members | bit, new_cands)
            assign(v + 1)
            blocks[idx] = (members, cands)
        blocks.append((bit, closed[v]))
        assign(v + 1)
        blocks.pop()

    assign(0)
    class_masks = [members for members, _ in best]
    dominators = [lowest_bit(cands) for _, cands in best]
    return best_count, make_coloring(class_masks, dominators).relabeled(ids)


def cd_chromatic_bruteforce(g: Graph, cap: int = BRUTEFORCE_CAP) -> Tuple[int, CdColoring]:
    """Independent oracle for the cd-chromatic number (small graphs only)."""
    if g.n > cap:
        raise CapacityError(f"brute-force oracle capacity is {cap} vertices, got {g.n}")
    return solve_per_component(g, _bruteforce_component)

"""Exact cd-chromatic number via set-family cover tables.

The engine represents a family of vertex subsets as a table, a plain
``2**n``-bit integer: bit ``d`` is set when the subset with
characteristic value ``d`` belongs to the family.  ``D_a`` is the table
of the sets, the empty set included, that at most ``a`` color classes
cover, and the cd-chromatic number is the smallest ``a`` whose ``D_a``
holds the full vertex set.  The family is closed under nonempty subsets
(a subset of an independent set inside ``N[y]`` is one too), so a cover
shrinks to a partition into as many classes or fewer: the
cover/partition equivalence of Björklund, Husfeldt and Koivisto ("Set
partitioning via inclusion-exclusion", SIAM J. Comput. 2009).  Some
class of any cover holds the set's highest vertex ``u``, so the sets of
``D_{a+1}`` whose highest vertex is ``u`` come from the sets below
``u`` in ``D_a``, closed upward inside the maximal classes that hold
``u``: :func:`cover_power` builds block ``u`` with operations ``2**u``
bits wide, over the cuts of those classes below ``u`` that
:func:`cover_cuts` reads off the graph.  ``D_1``, the family and the
empty set, is built by the same call from ``D_0`` = {empty set}.

The search meets in the middle, split on the top vertex ``t = n - 1``:
for ``b >= 1`` the full set lies in ``D_{a+b}`` exactly when ``D_a``
holds a set without ``t`` whose complement lies in ``D_b``.  Of a
partition into at most ``a + b`` classes, give the class that holds
``t`` and up to ``b - 1`` others to the complement, the rest to the
set.  So ``D_a`` meets a half table: the sets of ``D_b`` that hold
``t`` (its top ``2**(n-1)`` bits), ``t`` taken out, complemented inside
the other ``n - 1`` vertices (a reversal of ``2**(n-1)`` bits).  Every
set without ``t`` lies below every set with it, so the lowest set of
the half meet is the lowest of the full one.  Testing ``k = 2a - 1``
and ``k = 2a`` right after ``D_a`` is built finds ``q`` with only
``ceil(q/2)`` tables past ``D_0``, and the build of ``D_a`` stops at
the first block that meets for ``k = 2a - 1``; the half table reaches
no bit of ``t``'s block, the last one anyway.  As the tests run in
increasing ``k``, each set of the first meet needs exactly ``a`` classes
and its complement exactly ``b``: with fewer, a smaller ``k`` would have
met.  The witness is peeled inside each half.

Before any table is built, each component merges its false twins,
vertices with the same open neighborhood, into their highest member:
if ``N(u) = N(v)`` and neither is isolated, ``G`` and ``G - v`` have the
same cd-chromatic number (the types of neighborhood diversity, Lampis,
Algorithmica 2012).  Put ``v`` into ``u``'s class: it stays independent,
as ``v`` has ``u``'s neighbors, and its dominator ``y`` is adjacent to
``u``, so to ``v``, unless ``y = u``; then the class is ``{u}``, and any
neighbor of ``u`` dominates ``{u, v}``.  Conversely, drop ``v`` from its
class: a class that ``v`` dominates is ``{v}`` or lies in ``N(v) =
N(u)``, where ``u`` dominates it.  Removing ``v`` neither splits nor
joins other twin classes (a vertex adjacent to ``v`` is adjacent to
``u``), so one pass over the component merges them all.  The tables
index what is left; each twin joins its member's class, and each class
takes the lowest vertex of the component that dominates it.

The tests check each ``D_a`` of :func:`cover_power`, less its sets of
fewer than ``a`` vertices, bit for bit against the plain disjoint-union
product of tables folded over copies of the family; that reference
lives in ``tests/_brute.py``.

:func:`cd_chromatic_bruteforce` is the independent validation oracle: a
direct search over vertex partitions that never touches the tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .bits import bit_list, iter_bits, lack_masks, lowest_bit
from .coloring import CdColoring, make_coloring, solve_per_component
from .errors import CapacityError
from .graph import Graph

DEFAULT_EXACT_CAP = 26

BRUTEFORCE_CAP = 9

# byte value -> the same byte with its 8 bits in reverse order
_BIT_REVERSE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))

Cuts = List[List[List[int]]]  # per block, the vertex lists closed over


def complement(bits: int, n: int) -> int:
    """Table of the complements: bit ``d`` moves to bit ``full ^ d``.

    That reverses all ``2**n`` bits: reverse the byte order (write
    big-endian, read little-endian) and the bits inside each byte;
    below ``n = 3`` the padding of the single byte is shifted out.
    """
    raw = bits.to_bytes(max(1, (1 << n) // 8), "big").translate(_BIT_REVERSE)
    out = int.from_bytes(raw, "little")
    return out >> (8 - (1 << n)) if n < 3 else out


def cover_cuts(g: Graph) -> Cuts:
    """Per vertex ``u``, the lists :func:`cover_power` closes block ``u``
    over: the cuts ``M ∩ {0..u-1}`` of the classes ``M`` holding ``u``
    that no other cut contains, ascending.  A class holding ``u`` lies in
    some ``N[y]`` with ``y`` in ``N[u]``, so its cut is an independent
    subset of ``N[y] ∩ {0..u-1}`` outside ``N[u]``, and each such subset
    is the cut of a class.  Listed per ``(u, y)`` by Bron-Kerbosch on the
    complement (Bron and Kerbosch, CACM 1973), pivoting on the lowest
    free vertex, with no maximality test: a cut inside another drops.
    """
    closed = [g.closed(v) for v in range(g.n)]
    blocks = []
    for u in range(g.n):
        below = ((1 << u) - 1) & ~closed[u]
        block = set()
        for y in iter_bits(closed[u]):
            stack = [(0, closed[y] & below)]  # (chosen, free) masks
            while stack:
                s, free = stack.pop()
                if not free:
                    block.add(s)
                    continue
                # a maximal set holds the pivot or a neighbor of it
                for v in iter_bits(free & closed[lowest_bit(free)]):
                    stack.append((s | 1 << v, free & ~closed[v]))
                    free ^= 1 << v
        kept: List[int] = []
        for c in sorted(block, key=int.bit_count, reverse=True):  # only a larger cut holds c
            if not any(c | o == o for o in kept):
                kept.append(c)
        blocks.append(sorted(bit_list(c) for c in kept))
    return blocks


def _close_up(down: int, chains: List[List[int]], lack: List[int]) -> int:
    """Union over ``chains`` of ``down`` closed upward inside each chain.

    Closing over vertex ``i`` is ``x |= (x & lack[i]) << 2**i``.  A
    chain starts from the stacked table of the prefix it shares with the
    one before; no chain is a prefix of another, since the cuts they
    list contain none of the others.
    """
    out = 0
    stack = [down]  # stack[j]: down closed over the current chain's first j vertices
    prev: List[int] = []
    for chain in chains:
        k = 0
        while k < len(prev) and prev[k] == chain[k]:
            k += 1
        del stack[k + 1:]
        x = stack[k]
        for j in range(k, len(chain)):
            if j > k:
                stack.append(x)
            x |= (x & lack[chain[j]]) << (1 << chain[j])
        out |= x
        prev = chain
    return out


def cover_power(down: int, cuts: Cuts, stop: int) -> int:
    """``D_{a+1}`` of a family from its ``D_a``, block by block.

    The family must be closed under nonempty subsets; block ``u`` of
    ``cuts``, one per vertex of the ``n = len(cuts)``-vertex universe,
    lists the maximal cuts ``M ∩ {0..u-1}`` of the members ``M`` holding
    ``u``, as :func:`cover_cuts` lists them for the classes.  ``D_a`` holds
    the sets, the empty set included, that at most ``a`` members cover.
    Block ``u`` of ``D_{a+1}``, bits ``[2**u, 2**(u+1))``, is the low
    ``2**u`` bits of ``D_a`` closed upward inside each cut of block
    ``u``, shifted up by ``2**u``.  The blocks built so far are returned
    as soon as one meets ``stop``: they hold the lowest nonempty set of
    ``D_{a+1}`` in ``stop``.
    """
    lack = lack_masks(len(cuts) - 1)  # block u reads lack[i < u]
    out = 1  # the empty set
    for u, chains in enumerate(cuts):
        width = 1 << u
        block = _close_up(down & ((1 << width) - 1), chains, lack) << width
        out |= block
        if block & stop:
            break
    return out


def _dominator_of(g: Graph, comp: int, class_mask: int) -> int:
    """The lowest vertex of ``comp`` whose ``N[y]`` holds the class."""
    for y in iter_bits(comp):
        if not class_mask & ~g.closed(y):
            return y
    raise AssertionError("class has no dominator")


def _peel(tables: List[bytes], want: int, parts: int) -> List[int]:
    """Split ``want``, a set that needs exactly ``parts`` family sets, into them.

    ``tables[a]`` is ``D_a`` as little-endian bytes (``D_1`` is the
    family and the empty set; ``D_0`` is not read).  Each level above 1
    peels the lexicographically smallest family member whose removal
    stays in the table below, walking the subsets of ``want`` upward; as
    the family is closed under nonempty subsets, a subset outside it
    skips those that add vertices below its lowest.  Level 1 takes what
    is left, as only the empty set lies in ``D_0``.
    """
    class_masks: List[int] = []
    for level in range(parts, 1, -1):
        family, lower, s = tables[1], tables[level - 1], want & -want
        while s:
            if not family[s >> 3] >> (s & 7) & 1:
                s |= want & ((s & -s) - 1)
            elif lower[(want ^ s) >> 3] >> ((want ^ s) & 7) & 1:
                break
            s = (s - want) & want
        else:
            raise AssertionError("witness peel failed")
        class_masks.append(s)
        want ^= s
    return class_masks + [want] if parts else class_masks


def _partition(sub: Graph) -> List[int]:
    """The classes, as masks of ``sub``, of a cd-coloring of the connected
    graph ``sub`` with the fewest classes, met and peeled in its tables."""
    full = sub.full_mask
    cuts = cover_cuts(sub)
    powers = [1]  # powers[a] is D_a; D_0 = {empty set}
    prev_comp = 0  # no k = -1 test
    while True:
        a = len(powers) - 1
        b, meet = a - 1, powers[a] & prev_comp  # k = 2a - 1
        if not meet:
            # the sets of D_a that hold the top vertex, less it, complemented
            # inside the other n - 1 vertices
            prev_comp = complement(powers[a] >> (1 << (sub.n - 1)), sub.n - 1) if a else 1 << full
            b, meet = a, powers[a] & prev_comp  # k = 2a
        if meet:
            break
        if 2 * a >= sub.n:
            raise AssertionError("no family partition covers the component")
        # ends at the block that holds the lowest meet for k = 2a + 1
        powers.append(cover_power(powers[a], cuts, prev_comp))
    s = lowest_bit(meet)
    tables = [b""] + [p.to_bytes(((1 << sub.n) + 7) // 8, "little") for p in powers[1:a]]
    return _peel(tables, s, a) + _peel(tables, full ^ s, b)


def false_twins(g: Graph, comp: int) -> Dict[int, int]:
    """The vertices of ``comp`` by their open neighborhood inside it: the
    engine indexes one per group, and its cap counts the groups."""
    twins: Dict[int, int] = {}
    for v in iter_bits(comp):
        key = g.adj[v] & comp
        twins[key] = twins.get(key, 0) | 1 << v
    return twins


def _exact_component(g: Graph, comp: int, cap: int) -> Tuple[int, CdColoring]:
    """Merge the false twins of ``comp`` into their highest member, solve
    what is left on a compact copy, whose subsets the tables index (``g``
    itself when nothing merges and ``comp`` is all of it), and put each
    twin back into its member's class."""
    twins = false_twins(g, comp)
    kept = sum(1 << (c.bit_length() - 1) for c in twins.values())
    m, n = len(twins), comp.bit_count()
    if m > cap:
        merged = f" ({n} before merging false twins)" if m != n else ""
        raise CapacityError(
            f"exact solver capacity is {cap} vertices, got {m}{merged}; raise the cap"
        )
    sub, ids = g.induced(kept)
    class_masks = [
        sum(twins[g.adj[ids[i]] & comp] for i in iter_bits(c)) for c in _partition(sub)
    ]
    coloring = make_coloring(class_masks, [_dominator_of(g, comp, c) for c in class_masks])
    return len(class_masks), coloring


def cd_chromatic_exact(
    g: Graph, cap: int = DEFAULT_EXACT_CAP, active: Optional[int] = None
) -> Tuple[int, CdColoring]:
    """Exact cd-chromatic number of ``g[active]`` with a certifying coloring.

    Solved independently per connected component (the answers add) and
    capped at ``cap`` vertices, counted after merging false twins, per
    component with more than one vertex; each table costs ``2**n`` bits
    of memory for the ``n`` vertices left.  The empty graph has q = 0.
    """
    return solve_per_component(g, lambda g, comp: _exact_component(g, comp, cap), active)


# -- brute-force oracle -------------------------------------------------------


def _bruteforce_component(g: Graph, comp: int, cap: int) -> Tuple[int, CdColoring]:
    """Minimum partition of ``comp`` into dominated independent sets, in place.

    The vertices of ``comp`` are assigned in index order to an existing
    block or a fresh one; a block tracks the mask of vertices of ``comp``
    whose closed neighborhood still covers it, so dead branches prune early.
    """
    order = bit_list(comp)
    n = len(order)
    if n > cap:
        raise CapacityError(f"brute-force oracle capacity is {cap} vertices, got {n}")
    closed = [g.closed(v) & comp for v in order]
    best_count = n + 1
    best: List[Tuple[int, int]] = []
    blocks: List[Tuple[int, int]] = []  # (member mask, candidate dominator mask)

    def assign(i: int) -> None:
        nonlocal best_count, best
        if len(blocks) >= best_count:
            return
        if i == n:
            best_count = len(blocks)
            best = list(blocks)
            return
        v = order[i]
        bit = 1 << v
        for idx, (members, cands) in enumerate(blocks):
            if g.adj[v] & members:
                continue
            new_cands = cands & closed[i]
            if not new_cands:
                continue
            blocks[idx] = (members | bit, new_cands)
            assign(i + 1)
            blocks[idx] = (members, cands)
        blocks.append((bit, closed[i]))
        assign(i + 1)
        blocks.pop()

    assign(0)
    class_masks = [members for members, _ in best]
    dominators = [lowest_bit(cands) for _, cands in best]
    return best_count, make_coloring(class_masks, dominators)


def cd_chromatic_bruteforce(
    g: Graph, cap: int = BRUTEFORCE_CAP, active: Optional[int] = None
) -> Tuple[int, CdColoring]:
    """Independent oracle for the cd-chromatic number of ``g[active]``,
    capped at ``cap`` vertices per component with more than one vertex."""
    return solve_per_component(g, lambda g, comp: _bruteforce_component(g, comp, cap), active)

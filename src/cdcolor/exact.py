"""Exact cd-chromatic number via set-family table powers.

The engine represents a family of vertex subsets as a table, a plain
``2**n``-bit integer: bit ``d`` is set when the subset with
characteristic value ``d`` belongs to the family.  Power ``a`` of the
color-class family holds the sets that split into exactly ``a`` color
classes, and the smallest power that contains the full vertex set is
the cd-chromatic number.

Powers are cover tables.  The family is closed under nonempty subsets (a
subset of an independent set inside ``N[y]`` is one too) and holds every
singleton, so a set of at least ``a`` vertices splits into exactly ``a``
classes when at most ``a`` classes cover it: the cover/partition
equivalence of Björklund, Husfeldt and Koivisto ("Set partitioning via
inclusion-exclusion", SIAM J. Comput. 2009).  The sets that at most
``a`` classes cover form a down-closed table ``D_a``.  Some class of
any cover holds the set's highest vertex ``u``, so the sets of
``D_{a+1}`` whose highest vertex is ``u`` come from the sets below
``u`` in ``D_a``, closed upward inside the maximal classes that hold
``u``: :func:`cover_power` builds block ``u`` with operations ``2**u``
bits wide.  Power ``a`` is ``D_a`` without the sets of fewer than ``a``
vertices.  The family itself is power 1, built by the same call from
power 0 = {empty set} over :func:`maximal_classes`, read off the graph.

The search meets in the middle: the full set lies in power ``a + b``
exactly when some member ``S`` of power ``a`` has its complement in
power ``b``, i.e. when power ``a`` meets the complemented table of power
``b`` (bit ``d`` moved to bit ``full ^ d``, a reversal of all ``2**n``
bits).  Testing ``k = 2a - 1`` and ``k = 2a`` right after power ``a`` is
built finds ``q`` with only ``ceil(q/2)`` powers past power 0,
and the build of power ``a`` stops at the first block that meets for
``k = 2a - 1``.  The witness is peeled separately inside each half.

The tests check :func:`cover_power` bit for bit against the plain
disjoint-union product of tables folded over copies of the family; that
reference lives in ``tests/_brute.py``.

:func:`cd_chromatic_bruteforce` is the independent validation oracle: a
direct search over vertex partitions that never touches the tables.
"""

from __future__ import annotations

from typing import List, Tuple

from .bits import fewer_than, iter_bits, lack_masks, lowest_bit
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
    size = 1 << n
    nbytes = (size + 7) // 8
    raw = bits.to_bytes(nbytes, "big").translate(_BIT_REVERSE)
    return int.from_bytes(raw, "little") >> (8 * nbytes - size)


def maximal_classes(g: Graph) -> List[int]:
    """Color classes of ``g`` that no other class contains, ascending.

    A class is an independent set inside some ``N[y]``, so each maximal
    class is a maximal independent subset of ``N[y]`` for each of its
    dominators ``y``.  These are listed per ``y`` by Bron-Kerbosch on
    the complement (Bron and Kerbosch, CACM 1973), pivoting on the
    lowest free vertex, and each is kept from its lowest dominator
    only.  It is maximal among all classes when no dominator's ``N[d]``
    holds a vertex outside the set and its neighborhood, which would
    extend it.
    """
    out = []
    for y in range(g.n):
        stack = [(0, g.closed(y), 0)]  # (chosen, free, done) masks
        while stack:
            s, free, done = stack.pop()
            if free:  # a maximal set holds the pivot or a neighbor of it
                for v in iter_bits(free & g.closed(lowest_bit(free))):
                    rest = ~g.closed(v)
                    stack.append((s | 1 << v, free & rest, done & rest))
                    free, done = free ^ 1 << v, done | 1 << v
                continue
            if done:  # a done vertex extends s
                continue
            dominators, reach = -1, 0
            for v in iter_bits(s):
                dominators &= g.closed(v)
                reach |= g.closed(v)
            if lowest_bit(dominators) == y and not any(
                g.closed(d) & ~reach for d in iter_bits(dominators)
            ):
                out.append(s)
    return sorted(out)


def cover_cuts(maximal: List[int], n: int) -> Cuts:
    """Per vertex ``u``, the lists :func:`cover_power` closes block ``u``
    over: the cuts ``M ∩ {0..u-1}`` of the maximal members ``M`` holding
    ``u`` that no other cut contains.  A list puts the vertices more
    maximal members hold first (ties by index), and each block's lists
    are sorted, so cuts sharing their most common vertices sit together.
    """
    order = sorted(range(n), key=lambda v: -sum(m >> v & 1 for m in maximal))
    blocks = []
    for u in range(n):
        cuts = {m & ((1 << u) - 1) for m in maximal if m >> u & 1}
        kept = [c for c in cuts if not any(c | o == o != c for o in cuts)]
        blocks.append(sorted([v for v in order if c >> v & 1] for c in kept))
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


def _window(raw: bytes, u: int, start: int) -> int:
    """Bits ``[start, start + 2**u)``, ``start`` 0 or ``2**u``, of a table's bytes."""
    if u < 3:
        return raw[0] >> start & ((1 << (1 << u)) - 1)
    return int.from_bytes(raw[start >> 3:(start >> 3) + (1 << (u - 3))], "little")


def cover_power(power: int, a: int, cuts: Cuts, stop: int) -> int:
    """Power ``a + 1`` of a family from its power ``a``, block by block.

    The family must be closed under nonempty subsets and hold every
    singleton; ``cuts`` is :func:`cover_cuts` of its maximal members,
    one block per vertex of the ``n = len(cuts)``-vertex universe.
    ``D_a = power | W_{<a}``, where ``W_{<a}`` holds the sets of fewer
    than ``a`` vertices, holds the sets that at most ``a`` members
    cover.  Block ``u`` of ``D_{a+1}``, bits ``[2**u, 2**(u+1))``, is
    the low ``2**u`` bits of ``D_a`` closed upward inside each cut of
    block ``u``, shifted up by ``2**u``.  A set of at least ``a + 1``
    vertices that ``a + 1`` members cover splits into exactly ``a + 1``,
    so the power is ``D_{a+1}`` without the sets of at most ``a``
    vertices.  The blocks built so far are returned as soon as the
    power meets ``stop``: they hold its lowest set in ``stop``.
    """
    n = len(cuts)
    size, lack = ((1 << n) + 7) // 8, lack_masks(n - 1)  # block u reads lack[i < u]
    down = (power | fewer_than(n, a)).to_bytes(size, "little")
    hits = stop.to_bytes(size, "little")
    out = 1  # the empty set
    for u in range(n):
        block = _close_up(_window(down, u, 0), cuts[u], lack)
        out |= block << (1 << u)
        if block & _window(hits, u, 1 << u):  # D_{a+1} meets stop; does the power?
            prefix = out ^ fewer_than(u + 1, a + 1)
            if prefix >> (1 << u) & _window(hits, u, 1 << u):
                return prefix
    # its singletons cover a set of at most a vertices: xor drops just W_{<a+1}
    return out ^ fewer_than(n, a + 1)


def _dominator_of(g: Graph, class_mask: int) -> int:
    for y in range(g.n):
        if not class_mask & ~g.closed(y):
            return y
    raise AssertionError("class has no dominator")


def _peel(tables: List[bytes], want: int, parts: int) -> List[int]:
    """Split ``want``, a member of power ``parts``, into ``parts`` family sets.

    ``tables[a]`` is power ``a`` as little-endian bytes (power 1 is the
    family).  Each level peels the lexicographically smallest family
    member whose removal stays in the power below, walking the subsets
    of ``want`` upward; as the family is closed under nonempty subsets,
    a subset outside it skips those that add vertices below its lowest.
    """
    family = tables[1]
    class_masks: List[int] = []
    for level in range(parts, 0, -1):
        lower, s = tables[level - 1], want & -want
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
    return class_masks


def _exact_component(g: Graph, comp: int, cap: int) -> Tuple[int, CdColoring]:
    """Solve ``comp`` on a compact copy, whose subsets the tables index."""
    if comp.bit_count() > cap:
        raise CapacityError(
            f"exact solver capacity is {cap} vertices, got {comp.bit_count()}; raise the cap"
        )
    sub, ids = g.induced(comp)
    full = sub.full_mask
    cuts = cover_cuts(maximal_classes(sub), sub.n)
    powers = [1]  # powers[a] is power a; power 0 = {empty set}
    prev_comp = 0  # no k = -1 test
    while True:
        a = len(powers) - 1
        b, meet = a - 1, powers[a] & prev_comp  # k = 2a - 1
        if not meet:
            prev_comp = complement(powers[a], sub.n)
            b, meet = a, powers[a] & prev_comp  # k = 2a
        if meet:
            break
        if 2 * a >= sub.n:
            raise AssertionError("no family partition covers the component")
        # ends at the block that holds the lowest meet for k = 2a + 1
        powers.append(cover_power(powers[a], a, cuts, prev_comp))
    s = lowest_bit(meet)
    tables = [p.to_bytes(((1 << sub.n) + 7) // 8, "little") for p in powers[:max(a, 2)]]
    class_masks = _peel(tables, s, a) + _peel(tables, full ^ s, b)
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

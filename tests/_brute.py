"""Independent brute-force oracles used only by the tests.

Everything here enumerates directly from definitions (subsets,
partitions, colorings) and never calls the solver paths it is used to
check.  The two exceptions are ``type2_by_type1``, Type 2 written the
way the pattern reads: Type 1 once per retained vertex, and
``forced_sides_via_terminals``, the side-pinned transversal asked of
the plain one on a graph with two terminals.  ``star_product`` is
the plain disjoint-union product of two tables that the exact engine's
``cover_power`` is checked against, ``random_family_masks`` draws
the families it multiplies, ``fewer_than`` turns the engine's cover
tables back into exact powers, and ``cuts_of`` lists the cuts the
engine's ``cover_cuts`` must read off the graph.  ``tds_bruteforce`` is the exhaustive
total dominating set search that the kernel and branch and bound of
``cdcolor.tds`` are checked against, ``greedy_tds_rescoring`` the
greedy that re-scores every candidate at each pick, against which the
lazy greedy is checked, and ``tree_total_domination`` the linear-time
total domination number of a forest, the girth-5 route's oracle at
sizes no exhaustive search reaches.  ``peel_every_level`` is the witness
peel that ``exact._peel`` is checked against, walking the subsets at
every level, level 1 included.  ``partization_bruteforce`` is the
deletion oracle: every deletion set by size, each remainder scored by
the partition-search oracle ``cd_chromatic_bruteforce``.
"""

from __future__ import annotations

import itertools
import random
from typing import List

from cdcolor.bits import bit_list, iter_bits, lack_masks, mask_of
from cdcolor.coloring import CdColoring
from cdcolor.errors import CapacityError
from cdcolor.exact import cd_chromatic_bruteforce
from cdcolor.fpt import odd_cycle_transversal
from cdcolor.graph import Graph, bipartition_within
from cdcolor.partize import DeletionSolution, TypeWitness, _type0, delete_to_type1
from cdcolor.tds import TdsCertificate, is_total_dominating

TDS_BRUTE_N_CAP = 20
TDS_BRUTE_K_CAP = 6
PARTIZATION_BRUTE_N_CAP = 9


def subsets_of(vertices, min_size=0, max_size=None):
    vs = list(vertices)
    hi = len(vs) if max_size is None else min(max_size, len(vs))
    for size in range(min_size, hi + 1):
        yield from itertools.combinations(vs, size)


def is_independent(g: Graph, mask: int) -> bool:
    return all(not (g.adj[v] & mask) for v in iter_bits(mask))


def induces_cycle(g: Graph, combo) -> bool:
    """Does this vertex set induce a (single, spanning) cycle?"""
    mask = mask_of(combo)
    if len(combo) < 3:
        return False
    for v in combo:
        if (g.adj[v] & mask).bit_count() != 2:
            return False
    # connected plus all degrees two means a single cycle
    seen = 1 << combo[0]
    frontier = seen
    while frontier:
        grow = 0
        for v in iter_bits(frontier):
            grow |= g.adj[v]
        grow &= mask & ~seen
        seen |= grow
        frontier = grow
    return seen == mask


def brute_girth(g: Graph):
    """Shortest cycle length by enumerating induced cycles (a shortest
    cycle never has a chord)."""
    for size in range(3, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if induces_cycle(g, combo):
                return size
    return float("inf")


def brute_is_bipartite(g: Graph) -> bool:
    for colors in itertools.product((0, 1), repeat=g.n):
        if all(colors[u] != colors[v] for u, v in g.edges()):
            return True
    return g.n == 0


def brute_max_clique(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for combo in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                return size
    return best


def brute_split_partition_exists(g: Graph) -> bool:
    for combo in subsets_of(range(g.n)):
        clique = mask_of(combo)
        rest = g.full_mask & ~clique
        if all(
            g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)
        ) and is_independent(g, rest):
            return True
    return False


def brute_family_masks(g: Graph) -> set:
    """All nonempty independent sets inside some closed neighborhood."""
    out = set()
    for combo in subsets_of(range(g.n), min_size=1):
        mask = mask_of(combo)
        if not is_independent(g, mask):
            continue
        if any(not (mask & ~g.closed(y)) for y in range(g.n)):
            out.add(mask)
    return out


def brute_disjoint_union_masks(fam1, fam2) -> set:
    return {a | b for a in fam1 for b in fam2 if not a & b}


def random_family_masks(n: int, count: int, rng: random.Random) -> List[int]:
    """Random nonempty subset masks over an n-element universe."""
    out = set()
    for _ in range(count):
        size = rng.randint(1, max(1, n))
        out.add(sum(1 << v for v in rng.sample(range(n), min(size, n))))
    return sorted(out)


def star_product(n: int, p: int, r: int) -> int:
    """Reference product of two tables over an n-element universe: the
    table of all unions of a ``p``-member and a disjoint ``r``-member.

    A table is a ``2**n``-bit int whose bit ``d`` marks the subset with
    characteristic value ``d``.  For each member ``S`` of ``p``, the
    ``r``-members disjoint from ``S`` are ``r`` cut by ``lack[i]`` for
    every vertex ``i`` of ``S``; shifting them left by ``S`` adds ``S``
    to each.
    """
    lack = lack_masks(n)
    out = 0
    for s in bit_list(p):
        disjoint = r
        for i in iter_bits(s):
            disjoint &= lack[i]
        out |= disjoint << s
    return out


def fewer_than(n: int, a: int) -> int:
    """``2**n``-bit table of the subsets of a size-``n`` universe with
    fewer than ``a`` elements: the sets that the exact powers leave out
    of the engine's cover tables.

    Built by doubling the universe one vertex at a time, the high half
    one weight down, keeping only the rows that the last ones need.
    """
    rows = {b: int(b > 0) for b in range(max(0, a - n), a + 1)}
    for m in range(n):
        half = 1 << m
        lo = max(0, a - (n - m - 1))
        rows = {b: rows[b] | rows.get(b - 1, 0) << half for b in range(lo, a + 1)}
    return rows[a]


def cuts_of(members, n: int) -> List[List[List[int]]]:
    """Per vertex ``u`` of an n-element universe, the maximal sets among
    the cuts ``M ∩ {0..u-1}`` of the members ``M`` that hold ``u``, each
    an ascending list, sorted."""
    blocks = []
    for u in range(n):
        cuts = {m & ((1 << u) - 1) for m in members if m >> u & 1}
        maximal = [c for c in cuts if not any(c != o and not c & ~o for o in cuts)]
        blocks.append(sorted(bit_list(c) for c in maximal))
    return blocks


def peel_every_level(tables, want: int, parts: int) -> List[int]:
    """Split ``want``, a set that needs exactly ``parts`` family sets, into
    them: ``tables[a]`` is ``D_a`` as little-endian bytes, ``D_0`` = {empty
    set} included.  Every level, the last one too, takes the
    lexicographically smallest family member whose removal stays in the
    table below, walking the subsets of ``want`` upward and skipping
    those that add vertices below the lowest one of a non-member."""
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


def brute_partition_into_family(universe_mask: int, family, ell: int) -> bool:
    """Can the universe mask be split into ell disjoint family members?"""
    if ell == 0:
        return universe_mask == 0
    for s in family:
        if not s & ~universe_mask:
            if brute_partition_into_family(universe_mask & ~s, family, ell - 1):
                return True
    return False


def brute_min_tds(g: Graph, k: int):
    for size in range(1, min(k, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = mask_of(combo)
            if all(g.adj[v] & mask for v in range(g.n)):
                return mask
    return None


def tds_bruteforce(g: Graph, k: int):
    """Exhaustive minimum total dominating set of size <= k (small inputs)."""
    if g.n > TDS_BRUTE_N_CAP or k > TDS_BRUTE_K_CAP:
        raise CapacityError(
            f"brute-force caps are n <= {TDS_BRUTE_N_CAP}, k <= {TDS_BRUTE_K_CAP}"
        )
    if any(not g.adj[v] for v in range(g.n)):
        return None
    for size in range(0, min(k, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = mask_of(combo)
            if is_total_dominating(g, mask):
                return TdsCertificate(mask, size)
    return None


def greedy_tds_rescoring(g: Graph, sol: int, undom: int, active: int):
    """Grow ``sol`` by the active vertex of largest gain, re-scoring every
    active vertex at each pick; ties go to the lowest index.  None when
    an undominated vertex has no active neighbor."""
    while undom:
        v = max(iter_bits(active), key=lambda w: (g.adj[w] & undom).bit_count())
        if not g.adj[v] & undom:
            return None
        sol |= 1 << v
        undom &= ~g.adj[v]
    return sol


def tree_total_domination(g: Graph):
    """Total domination number of a forest in linear time, or None when a
    tree is a lone vertex (Laskar, Pfaff, Hedetniemi and Hedetniemi, "On
    the algorithmic complexity of total domination", SIAM J. Algebraic
    Discrete Methods 1984).

    Each tree is rooted at its lowest vertex and walked leaves first,
    without recursion.  A vertex ``v`` keeps the least set size in its
    subtree, with every vertex below ``v`` dominated, in four states:
    ``v`` in the set or not, and dominated by a child or left for its
    parent to dominate.
    """
    inf = float("inf")
    total = 0
    seen = 0
    for root in range(g.n):
        if seen >> root & 1:
            continue
        seen |= 1 << root
        order, children = [root], {root: []}
        for v in order:  # breadth first; the list grows as it is read
            for u in iter_bits(g.adj[v] & ~seen):
                seen |= 1 << u
                children[v].append(u)
                children[u] = []
                order.append(u)
        degrees = sum(g.adj[v].bit_count() for v in order)
        assert degrees == 2 * (len(order) - 1), "not a forest"
        cost = {}  # v -> (in, dominated), (in, open), (out, dominated), (out, open)
        for v in reversed(order):
            kids = [cost[u] for u in children[v]]
            any_state = [min(c) for c in kids]
            in_dom = 1 + sum(any_state) + min(
                (min(c[0], c[1]) - a for c, a in zip(kids, any_state)), default=inf
            )
            in_open = 1 + sum(min(c[2], c[3]) for c in kids)
            out_best = [min(c[0], c[2]) for c in kids]
            out_dom = sum(out_best) + min(
                (c[0] - b for c, b in zip(kids, out_best)), default=inf
            )
            out_open = sum(c[2] for c in kids)
            cost[v] = (in_dom, in_open, out_dom, out_open)
        best = min(cost[root][0], cost[root][2])
        if best == inf:
            return None
        total += best
    return total


def brute_vertex_cover_min(g: Graph, k: int):
    edges = g.edges()
    for size in range(min(k, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = mask_of(combo)
            if all((mask >> u) & 1 or (mask >> v) & 1 for u, v in edges):
                return mask
    return None


def _bipartite_without(g: Graph, removed: int) -> bool:
    sub, _ = g.without(removed)
    return brute_is_bipartite(sub) if sub.n <= 12 else _two_color(sub)


def _two_color(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in iter_bits(g.adj[u]):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def brute_oct_min(g: Graph, k: int, avoid=None):
    candidates = [v for v in range(g.n) if v != avoid]
    for size in range(min(k, len(candidates)) + 1):
        for combo in itertools.combinations(candidates, size):
            mask = mask_of(combo)
            if _bipartite_without(g, mask):
                return mask
    return None


def brute_forced_sides(g: Graph, p_mask: int, q_mask: int, exclude, k: int):
    """Exhaustive (oct, sides) with surviving p and q on opposite sides."""
    candidates = [v for v in range(g.n) if v != exclude]
    for size in range(min(k, len(candidates)) + 1):
        for combo in itertools.combinations(candidates, size):
            removed = mask_of(combo)
            active = bit_list(g.full_mask & ~removed)
            for colors in itertools.product((0, 1), repeat=len(active)):
                side = dict(zip(active, colors))
                if any(
                    side[u] == side[v]
                    for u, v in g.edges()
                    if u in side and v in side
                ):
                    continue
                if any(side[v] != 0 for v in active if (p_mask >> v) & 1):
                    continue
                if any(side[v] != 1 for v in active if (q_mask >> v) & 1):
                    continue
                s0 = mask_of(v for v in active if side[v] == 0)
                return removed, (s0, mask_of(active) & ~s0)
    return None


def forced_sides_via_terminals(g: Graph, p_mask: int, q_mask: int, exclude, k: int, active=None):
    """The side-pinned ``odd_cycle_transversal`` and its sides, with no
    demands passed to the compression: the transversal avoiding
    ``exclude`` is found on ``g`` plus two adjacent undeletable terminals
    P and Q, P joined to every ``p`` vertex and Q to every ``q`` vertex.
    With P and Q on opposite sides, a bipartition of the rest exists
    exactly when the demands can be met."""
    if active is None:
        active = g.full_mask
    P, Q = g.n, g.n + 1
    adj = [
        row | (((p_mask >> u) & 1) << P) | (((q_mask >> u) & 1) << Q)
        for u, row in enumerate(g.adj)
    ]
    adj += [p_mask | (1 << Q), q_mask | (1 << P)]
    terminals = (1 << P) | (1 << Q)
    undeletable = terminals | (0 if exclude is None else 1 << exclude)
    found = odd_cycle_transversal(Graph(g.n + 2, adj), k, active | terminals, undeletable)
    if found is None:
        return None
    return found, bipartition_within(g, active & ~found, p_mask, q_mask)


def _reach(g: Graph, mask: int, start: int) -> int:
    """Vertices of ``g[mask]`` reachable from ``start & mask``."""
    seen = frontier = start & mask
    while frontier:
        grow = 0
        for v in iter_bits(frontier):
            grow |= g.adj[v]
        frontier = grow & mask & ~seen
        seen |= frontier
    return seen


def brute_min_separators(g: Graph, active: int, sources: int, sinks: int, fixed: int):
    """Every minimum set of ``active`` vertices outside ``fixed`` whose
    removal leaves no source joined to a sink (a vertex in both must go),
    each paired with what the surviving sources still reach; [] when no
    such set exists."""
    candidates = bit_list(active & ~fixed)
    for size in range(len(candidates) + 1):
        found = []
        for combo in itertools.combinations(candidates, size):
            cut = mask_of(combo)
            reach = _reach(g, active & ~cut, sources)
            if not reach & sinks:
                found.append((cut, reach))
        if found:
            return found
    return []


def type2_by_type1(g: Graph, k: int, active: int):
    """``delete_to_type2`` as Type 1 on ``active`` minus each retained
    vertex in turn, the first that fits in vertex order."""
    for x in iter_bits(active):
        inner = delete_to_type1(g, k, active & ~(1 << x))
        if inner is None:
            continue
        w1 = inner.plan[0][1]
        coloring = CdColoring(
            w1.coloring.classes + ((x,),),
            w1.coloring.dominators + (x,),
        )
        if g.adj[x] & active & ~inner.deleted:
            plan = (("Type2", TypeWitness(2, (x,), coloring)),)
        else:
            plan = (("IsolatedVertex", _type0(g, 1 << x)), ("Type1", w1))
        return DeletionSolution(inner.deleted, plan, coloring)
    return None


def partization_bruteforce(g: Graph, k: int, q: int):
    """Exhaustive deletion oracle over all subsets of size <= k, by size
    and then in ``itertools.combinations`` order."""
    if g.n > PARTIZATION_BRUTE_N_CAP:
        raise CapacityError(f"brute-force cap is n <= {PARTIZATION_BRUTE_N_CAP}")
    if q < 0 or k < 0:
        return None
    for size in range(min(k, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            deleted = mask_of(combo)
            qq, coloring = cd_chromatic_bruteforce(g, active=g.full_mask & ~deleted)
            if qq <= q:
                return DeletionSolution(deleted, (), coloring)
    return None

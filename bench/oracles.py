"""Reference answers that never call the solver under test.

Graphs are given as ``(n, adj)`` with ``adj[v]`` the neighbor bit mask
of vertex ``v``.  Each oracle is a plain search, slow but independent of
the package's algorithms, so an agreement with the package is evidence.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple


def adjacency(n: int, edges: Sequence[Tuple[int, int]]) -> List[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _independence_number(adj: Sequence[int], within: int) -> int:
    if not within:
        return 0
    v = (within & -within).bit_length() - 1
    rest = within & ~(1 << v)
    return max(
        _independence_number(adj, rest),
        1 + _independence_number(adj, rest & ~adj[v]),
    )


def cd_number(n: int, adj: Sequence[int]) -> int:
    """Minimum number of dominated independent sets partitioning V.

    Iterative deepening on the number of classes.  The lowest uncovered
    vertex goes into some maximal independent subset of a closed
    neighborhood, largest first.  A budget fails early when ``budget``
    classes of the largest possible size cannot cover what is left; a
    class's size is bounded per closed neighborhood by its size within
    what is left and by its independence number.  Failed (set, budget)
    pairs are remembered across budgets.
    """
    if n == 0:
        return 0
    closed = [adj[v] | (1 << v) for v in range(n)]
    alpha = [_independence_number(adj, closed[y]) for y in range(n)]
    failed: dict = {}

    def classes_with(v: int, rest: int) -> List[int]:
        # Shrinking a class keeps it a class, so a partition exists iff a
        # cover does, and a cover may use classes that are maximal within
        # what is left.
        out = set()
        for y in _bits(closed[v]):
            pool = closed[y] & rest & ~closed[v]
            sets = [1 << v]
            for w in _bits(pool):
                sets += [s | (1 << w) for s in sets if not adj[w] & s]
            out.update(s for s in sets if all(adj[w] & s for w in _bits(pool & ~s)))
        return sorted(out, key=lambda c: (-bin(c).count("1"), c))

    def fits(rest: int, budget: int) -> bool:
        if not rest:
            return True
        if budget == 0 or failed.get(rest, -1) >= budget:
            return False
        largest = max(min(alpha[y], bin(closed[y] & rest).count("1")) for y in range(n))
        if largest * budget >= bin(rest).count("1"):
            v = (rest & -rest).bit_length() - 1
            for c in classes_with(v, rest):
                if fits(rest & ~c, budget - 1):
                    return True
        failed[rest] = budget
        return False

    budget = 1
    while not fits((1 << n) - 1, budget):
        budget += 1
    return budget


def chromatic_number(n: int, adj: Sequence[int]) -> int:
    """Proper chromatic number by backtracking (small graphs)."""
    if n == 0:
        return 0
    order = sorted(range(n), key=lambda v: -bin(adj[v]).count("1"))
    colors = [-1] * n

    def fits(i: int, k: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        taken = {colors[w] for w in _bits(adj[v]) if colors[w] >= 0}
        for c in range(min(used + 1, k)):
            if c not in taken:
                colors[v] = c
                if fits(i + 1, k, max(used, c + 1)):
                    return True
                colors[v] = -1
        return False

    k = 1
    while not fits(0, k, 0):
        k += 1
    return k


def _bipartite_within(adj: Sequence[int], active: int) -> bool:
    side = {}
    for s in _bits(active):
        if s in side:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for w in _bits(adj[u] & active):
                if w not in side:
                    side[w] = side[u] ^ 1
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def min_oct(n: int, adj: Sequence[int], limit: int) -> Optional[int]:
    """Size of a minimum odd cycle transversal if it is <= limit."""
    full = (1 << n) - 1
    for size in range(limit + 1):
        for combo in itertools.combinations(range(n), size):
            removed = sum(1 << v for v in combo)
            if _bipartite_within(adj, full & ~removed):
                return size
    return None


def min_vc(n: int, adj: Sequence[int], limit: int) -> Optional[int]:
    """Size of a minimum vertex cover if it is <= limit."""
    edges = [(u, v) for u in range(n) for v in _bits(adj[u]) if u < v]
    for size in range(limit + 1):
        for combo in itertools.combinations(range(n), size):
            cover = sum(1 << v for v in combo)
            if all((cover >> u) & 1 or (cover >> v) & 1 for u, v in edges):
                return size
    return None


def min_tds(n: int, adj: Sequence[int]) -> Optional[int]:
    """Total domination number by branch and bound (None: isolated vertex).

    Branch on the undominated vertex with the fewest usable neighbors;
    neighbors tried in earlier branches are excluded from later ones.
    """
    if any(not adj[v] for v in range(n)):
        return None
    full = (1 << n) - 1
    maxdeg = max(bin(a).count("1") for a in adj)
    best = n

    def rec(dom: int, banned: int, size: int) -> None:
        nonlocal best
        undom = full & ~dom
        if not undom:
            best = min(best, size)
            return
        if size + -(-bin(undom).count("1") // maxdeg) >= best:
            return
        pick, cands = -1, None
        for u in _bits(undom):
            c = adj[u] & ~banned
            if cands is None or bin(c).count("1") < bin(cands).count("1"):
                pick, cands = u, c
                if not c:
                    return
        for v in _bits(cands):
            rec(dom | adj[v], banned, size + 1)
            banned |= 1 << v

    rec(0, 0, 0)
    return best

"""Parameterized subroutines behind the deletion solvers.

Vertex cover runs a bounded search tree with pendant and high-degree
reductions.  Odd cycle transversal runs iterative compression: grow the
graph one vertex at a time, and whenever the carried transversal
overflows, re-split it into deleted / side-one / side-two vertices and
finish with a minimum vertex cut between the bipartition conflicts.
One compression step builds one split-vertex flow network of the
uncarried vertices; each side labeling only opens its own source and
sink arcs, and a labeling with nothing to separate needs no flow.

The compression also takes a set of undeletable vertices: they never get
the "delete" label and their cut arc has infinite capacity.  It takes two
side demands too: a labeling that puts a demand vertex on the wrong side
is skipped, the base two-coloring of the uncarried vertices meets the
demands, and the demand vertices among them must keep it.  So one
routine, ``odd_cycle_transversal``, answers all three queries of the
deletion solvers exactly, on the graph itself: a plain transversal, one
avoiding a vertex, and one whose residual bipartition puts two demand
sets on opposite sides.

A subproblem is a vertex mask of the input graph: the routines take an
optional ``active`` mask, work on ``g[active]`` and answer in ``g``'s own
vertex ids.  Bipartiteness tests and side demands share one routine,
``graph.bipartition_within``, which reads the two-colorings that
``graph.component_sides`` finds in one breadth-first walk per component
and orients each component to meet the demands.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .bits import bit_list, iter_bits, lowest_bit, mask_of
from .errors import PreconditionError
from .graph import Graph, bipartition_within


def vertex_cover(g: Graph, k: int, active: Optional[int] = None) -> Optional[int]:
    """Minimum vertex cover of ``g[active]`` as a mask, provided one of
    size <= k exists."""
    if k < 0:
        return None
    best_size = k + 1
    best_mask: Optional[int] = None

    def rec(active: int, cover: int, size: int) -> None:
        nonlocal best_size, best_mask
        if size >= best_size:
            return
        # reductions: forced high-degree vertices, then pendant neighbors
        while True:
            budget = best_size - 1 - size
            pendant_nb = -1
            max_v, max_d = -1, 0
            forced = -1
            for v in iter_bits(active):
                d = (g.adj[v] & active).bit_count()
                if d > budget:
                    forced = v
                    break
                if d == 1 and pendant_nb < 0:
                    pendant_nb = lowest_bit(g.adj[v] & active)
                if d > max_d:
                    max_v, max_d = v, d
            pick = forced if forced >= 0 else pendant_nb
            if pick < 0:
                break
            cover |= 1 << pick
            active &= ~(1 << pick)
            size += 1
            if size >= best_size:
                return
        if max_d == 0:
            best_size, best_mask = size, cover
            return
        v = max_v
        rec(active & ~(1 << v), cover | (1 << v), size + 1)
        nbrs = g.adj[v] & active
        rec(active & ~nbrs & ~(1 << v), cover | nbrs, size + nbrs.bit_count())

    rec(g.full_mask if active is None else active, 0, 0)
    return best_mask


# -- odd cycle transversal -----------------------------------------------------


_INF = 1 << 20


def _split_network(g: Graph, active: int, undeletable: int) -> tuple:
    """Split-vertex flow network of ``g[active]`` for ``_min_vertex_cut``,
    shared by every side labeling of one compression step.

    Node 2v is v's in-node, 2v + 1 its out-node, then the virtual source
    S and sink T.  Arcs sit in flat lists, arc ``e ^ 1`` reversing arc
    ``e``: in(v) -> out(v) has capacity 1, or infinite when v is
    undeletable, each edge gives out -> in arcs of infinite capacity,
    and S -> in(v) and out(v) -> T start closed at capacity 0.
    """
    head, cap = [], []  # arc e runs to head[e] with capacity cap[e]
    arcs = [[] for _ in range(2 * g.n + 2)]  # arc ids leaving each node
    src, snk = [0] * g.n, [0] * g.n

    def arc(a: int, b: int, c: int) -> int:
        arcs[a].append(len(head))
        arcs[b].append(len(head) + 1)
        head.extend((b, a))
        cap.extend((c, 0))
        return len(head) - 2

    for v in iter_bits(active):
        arc(2 * v, 2 * v + 1, _INF if (undeletable >> v) & 1 else 1)
        for w in iter_bits(g.adj[v] & active):
            arc(2 * v + 1, 2 * w, _INF)
        src[v] = arc(2 * g.n, 2 * v, 0)
        snk[v] = arc(2 * v + 1, 2 * g.n + 1, 0)
    return active, head, cap, arcs, src, snk


def _min_vertex_cut(net: tuple, sources: int, sinks: int, budget: int) -> Optional[int]:
    """Minimum set of deletable vertices of a ``_split_network``
    separating ``sources`` from ``sinks`` (both within its active mask),
    or None when it exceeds the budget.

    Unit capacity per deletable vertex (source and sink vertices
    included), augmented one unit per path on a copy of the network's
    capacities.  The cut is the set of vertices whose in-node is
    reachable in the final residual graph and whose out-node is not:
    the minimum cut closest to the sources, the same for every maximum
    flow, so the answer does not depend on the order of the arcs.
    """
    active, head, cap0, arcs, src, snk = net
    if budget < 0:
        return None
    cap = cap0.copy()
    for v in iter_bits(sources):
        cap[src[v]] = _INF
    for v in iter_bits(sinks):
        cap[snk[v]] = _INF
    S, T = len(arcs) - 2, len(arcs) - 1
    flow = 0
    while True:
        # BFS over the residual graph; parent[b] is the arc that reached b
        parent = [-1] * len(arcs)
        parent[S] = 0  # seen; the walk back stops before reading it
        queue = [S]
        for a in queue:
            for e in arcs[a]:
                b = head[e]
                if cap[e] > 0 and parent[b] < 0:
                    parent[b] = e
                    queue.append(b)
            if parent[T] >= 0:
                break
        if parent[T] < 0:
            break
        flow += 1
        if flow > budget:
            return None
        b = T
        while b != S:
            e = parent[b]
            cap[e] -= 1
            cap[e ^ 1] += 1
            b = head[e ^ 1]
    return mask_of(
        v for v in iter_bits(active) if parent[2 * v] >= 0 and parent[2 * v + 1] < 0
    )


def _compress(
    g: Graph, prefix: int, carried: int, undeletable: int, k: int, first: int, second: int
) -> Optional[int]:
    """Turn an OCT of ``g[prefix]`` into one of size <= k that avoids
    ``undeletable`` and leaves surviving ``first`` and ``second`` on
    sides one and two."""
    members = bit_list(carried)
    rest = prefix & ~carried
    base = bipartition_within(g, rest, first, second)
    assert base is not None
    c1, c2 = base
    net = None  # built when the first labeling needs a flow
    labels = [(1, 2) if (undeletable >> v) & 1 else (0, 1, 2) for v in members]
    for assignment in itertools.product(*labels):
        deleted = side1 = side2 = 0
        for v, a in zip(members, assignment):
            if a == 0:
                deleted |= 1 << v
            elif a == 1:
                side1 |= 1 << v
            else:
                side2 |= 1 << v
        budget = k - deleted.bit_count()
        if budget < 0 or side1 & second or side2 & first:
            continue  # over budget, or a demand vertex on the wrong side
        if any(g.adj[v] & side1 for v in iter_bits(side1)):
            continue
        if any(g.adj[v] & side2 for v in iter_bits(side2)):
            continue
        force1 = force2 = 0
        for v in iter_bits(side2):
            force1 |= g.adj[v]
        for v in iter_bits(side1):
            force2 |= g.adj[v]
        force1 &= rest
        force2 &= rest
        # demand: keep the base coloring, which already meets the side demands
        keep0 = (force1 & c1) | (force2 & c2) | ((first | second) & rest)
        keep1 = (force1 & c2) | (force2 & c1)  # demand: flip base coloring
        if not keep0 or not keep1:
            return deleted  # nothing to separate
        if keep0 & keep1 & undeletable:
            continue  # an undeletable vertex demanded on both sides
        if net is None:
            net = _split_network(g, rest, undeletable)
        cut = _min_vertex_cut(net, keep0, keep1, budget)
        if cut is not None:
            return deleted | cut
    return None


def _minimalize_oct(g: Graph, oct_mask: int, active: int, first: int, second: int) -> int:
    """Drop removable vertices, ascending, so the OCT of ``g[active]`` is
    minimal.  One pass suffices: a vertex that cannot leave the
    transversal cannot leave a smaller one, whose remainder is larger."""
    for v in iter_bits(oct_mask):
        cand = oct_mask & ~(1 << v)
        if bipartition_within(g, active & ~cand, first, second) is not None:
            oct_mask = cand
    return oct_mask


def odd_cycle_transversal(
    g: Graph,
    k: int,
    active: Optional[int] = None,
    undeletable: int = 0,
    first: int = 0,
    second: int = 0,
) -> Optional[int]:
    """Minimal odd cycle transversal of ``g[active]`` of size <= k as a
    mask, or None.  It avoids ``undeletable`` and leaves surviving
    ``first`` and ``second`` on opposite sides: the compression meets
    the demands itself, so the answer is exact, and
    ``bipartition_within(g, active & ~oct, first, second)`` reads the
    sides."""
    if first & second:
        raise PreconditionError("forced side sets must be disjoint")
    stray = (first | second) >> g.n
    if stray:
        raise PreconditionError(f"forced side vertex {g.n + lowest_bit(stray)} not in the graph")
    if active is None:
        active = g.full_mask
    if undeletable & ~active:
        v = lowest_bit(undeletable & ~active)
        raise PreconditionError(f"vertex {v} not among the active vertices")
    if k < 0:
        return None
    if bipartition_within(g, active, first, second) is not None:
        return 0
    x = prefix = 0
    for v in iter_bits(active):
        x |= 1 << v
        prefix |= 1 << v
        # an undeletable vertex must leave the carried set as soon as it joins
        if x.bit_count() > k or x & undeletable:
            x = _compress(g, prefix, x, undeletable, k, first, second)
            if x is None:
                return None
    return _minimalize_oct(g, x, active, first, second)

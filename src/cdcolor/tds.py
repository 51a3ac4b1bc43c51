"""Total dominating sets and the girth-5 route to cd-coloring.

On triangle-free graphs a minimum total dominating set has the same
size as an optimal cd-coloring, and the coloring can be read off the
set.  Girth 5 additionally makes neighborhoods independent and pairwise
near-disjoint, which powers the cubic kernel.  One branch and bound
finds minimum sets in place: on each component mask for the cd-chromatic
number, and on each kept kernel mask from its forced set for ``tds_solve``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import NamedTuple, Optional, Tuple

from .bits import bit_list, iter_bits, mask_of
from .coloring import CdColoring, make_coloring, solve_per_component
from .errors import CapacityError, PreconditionError
from .graph import Graph, girth, iter_components


def kernel_size_bound(k: int) -> int:
    """Documented kernel guarantee: at most ``k**3 + 2k**2 + 2k`` vertices."""
    return k**3 + 2 * k**2 + 2 * k


class TdsCertificate(NamedTuple):
    """A total dominating set as a mask plus its size."""

    mask: int
    size: int


class KernelOutcome(NamedTuple):
    """Result of kernelization: an immediate NO or a reduced instance.

    ``keep`` masks the vertices the kernel keeps and ``forced`` the
    high-degree ones among them, which belong to every solution of size
    at most ``k``; both are in the input graph's own vertex ids.
    """

    verdict: str  # "NO" or "REDUCED"
    keep: int = 0
    forced: int = 0
    reason: Optional[str] = None


def is_total_dominating(g: Graph, mask: int) -> bool:
    """True when every vertex has a neighbor inside ``mask``."""
    return all(g.adj[v] & mask for v in range(g.n))


def _require_girth5(g: Graph, who: str) -> None:
    gg = girth(g, 5)  # 3 or 4 exactly, else 5
    if gg < 5:
        raise PreconditionError(
            f"{who} requires girth >= 5 (got {gg}): open neighborhoods must be "
            "independent sets with pairwise intersections of size at most 1"
        )


def tds_kernelize(g: Graph, k: int) -> KernelOutcome:
    """Cubic kernel for total domination on girth >= 5 graphs, in place.

    High-degree vertices (degree > k) are forced into any solution, the
    remainder's size is bounded, and a vertex of ``J*`` whose
    high-degree neighborhood is covered by a surviving peer is deleted.
    With k = 0 that is NO on a nonempty graph and the empty kernel on
    the empty one.
    """
    if k < 0:
        raise PreconditionError("parameter k must be non-negative")
    _require_girth5(g, "tds kernelization")
    h_mask = mask_of(v for v in range(g.n) if g.adj[v].bit_count() > k)
    if h_mask.bit_count() > k:
        return KernelOutcome("NO", reason=f"more than k={k} vertices of degree > k")
    j_mask = 0
    for h in iter_bits(h_mask):
        j_mask |= g.adj[h]
    j_mask &= ~h_mask
    r_mask = g.full_mask & ~(h_mask | j_mask)
    if r_mask.bit_count() > k * k:
        return KernelOutcome("NO", reason="undominatable remainder: |R| > k^2")
    nr_mask = 0  # |N(R)| <= k|R| <= k^3, as R has no vertex of degree > k
    for v in iter_bits(r_mask):
        nr_mask |= g.adj[v]
    j_star = bit_list(j_mask & ~nr_mask)
    deleted = 0
    for u in j_star:
        hu = g.adj[u] & h_mask
        for v in j_star:
            if v == u or (deleted >> v) & 1:
                continue
            if not hu & ~(g.adj[v] & h_mask):
                deleted |= 1 << u
                break
    keep = g.full_mask & ~deleted
    assert keep.bit_count() <= kernel_size_bound(k)
    return KernelOutcome("REDUCED", keep, h_mask)


def _greedy_tds(g: Graph, sol: int, undom: int, active: int) -> Optional[int]:
    """Grow ``sol`` by the active vertex of largest gain until none is undominated.

    Gain counts newly dominated vertices; ties go to the lowest index.
    None when an undominated vertex has no active neighbor.  Gains only
    fall as ``undom`` shrinks, so a heap of stale ``(-gain, index)`` keys
    re-scores just its top: a top whose key is unchanged is the best
    vertex (Minoux's lazy greedy).
    """
    adj = g.adj
    heap = [(-(adj[w] & undom).bit_count(), w) for w in iter_bits(active)]
    heapq.heapify(heap)
    while undom:
        stale, v = heap[0]
        fresh = -(adj[v] & undom).bit_count()
        if fresh != stale:
            heapq.heapreplace(heap, (fresh, v))
            continue
        if not fresh:
            return None
        heapq.heappop(heap)
        sol |= 1 << v
        undom &= ~adj[v]
    return sol


# Work cap of one search: the undominated vertices of its nodes, summed.
# One Xeon core gets through 0.4-0.8 million a second, fewer on wider
# graphs; the n=80 graphs of the README's capacity table use up to 7.8
# million.  Long sparse components, where both lower bounds are weak,
# end in CapacityError instead of running for hours.
TDS_SEARCH_BUDGET = 8_000_000


def _min_tds(
    g: Graph, forced: int = 0, cap: Optional[int] = None, active: Optional[int] = None
) -> Optional[int]:
    """Minimum total dominating set of ``g[active]`` (default: all of ``g``)
    containing ``forced``, or None.

    Only sets of size at most ``cap`` (when given) count.  Branch and
    bound from a greedy incumbent, run depth first on an explicit stack:
    a node branches on the undominated vertex with the fewest allowed
    neighbors and tries those neighbors by falling gain (newly dominated
    vertices), banning each one from its later siblings.  Two lower
    bounds prune a node as it is entered, before any gain is scored: a
    packing of undominated vertices with pairwise disjoint allowed
    neighborhoods, each of which needs its own set vertex, and then the
    fewest gains that add up to the undominated count.  A child is
    skipped once its parent's bound reaches the incumbent.  Once the
    undominated vertices of the nodes entered add up to more than
    ``TDS_SEARCH_BUDGET``, the search raises :class:`CapacityError`.
    """
    adj = g.adj
    undom = active = g.full_mask if active is None else active
    for v in iter_bits(forced):
        undom &= ~adj[v]
    best = _greedy_tds(g, forced, undom, active)
    best_size = g.n + 1 if best is None else best.bit_count()
    if cap is not None and best_size > cap:
        best, best_size = None, cap + 1
    budget = TDS_SEARCH_BUDGET
    size = forced.bit_count()
    # depth first: (set, undominated, allowed, size, the parent's bound)
    stack = [(forced, undom, active, size, size)]
    while stack:
        sol, undom, allowed, size, parent_bound = stack.pop()
        if parent_bound >= best_size:
            continue
        if not undom:
            best, best_size = sol, size
            continue
        need = undom.bit_count()
        budget -= need
        if budget < 0:
            raise CapacityError(
                f"girth-5 search exceeded TDS_SEARCH_BUDGET={TDS_SEARCH_BUDGET} "
                "(undominated vertices summed over its nodes)"
            )
        cands = []
        for u in iter_bits(undom):
            cand = adj[u] & allowed
            if not cand:
                break
            cands.append((cand.bit_count(), u, cand))
        if not cand:  # an undominated vertex has no allowed neighbor left
            continue
        cands.sort()
        reach = used = packing = 0
        for _, _, cand in cands:
            reach |= cand
            if not cand & used:
                packing += 1
                used |= cand
        if size + packing >= best_size:
            continue
        gains = {v: (adj[v] & undom).bit_count() for v in iter_bits(reach)}
        ranked = itertools.accumulate(sorted(gains.values(), reverse=True))
        cover = next(i for i, total in enumerate(ranked, 1) if total >= need)
        if size + cover >= best_size:
            continue
        bound = size + max(cover, packing)
        pick = cands[0][1]
        children = []
        for v in sorted(iter_bits(adj[pick] & allowed), key=lambda w: (-gains[w], w)):
            children.append((sol | 1 << v, undom & ~adj[v], allowed, size + 1, bound))
            allowed &= ~(1 << v)
        stack.extend(reversed(children))
    return best


def tds_solve(g: Graph, k: int) -> Optional[TdsCertificate]:
    """Minimum total dominating set of size <= k, or None.

    The graph is kernelized once, and on each component the branch and
    bound of :func:`_min_tds` runs on the kept vertices from the forced
    set, capped by what is left of ``k``.  The sizes of the components
    add up; a lone vertex has no total dominating set, and the empty
    graph has the empty one, of size 0.
    """
    outcome = tds_kernelize(g, max(k, 0))  # checks the girth also for k < 0
    return _solve_kernelized(g, k, outcome)


def _solve_kernelized(g: Graph, k: int, outcome: KernelOutcome) -> Optional[TdsCertificate]:
    """:func:`tds_solve` past its kernel: ``outcome`` is ``tds_kernelize(g, k)``."""
    if k < 0 or outcome.verdict == "NO":
        return None
    total = 0
    for comp in iter_components(g, g.full_mask):
        found = _min_tds(g, outcome.forced & comp, k - total.bit_count(), outcome.keep & comp)
        if found is None:
            return None
        total |= found
    assert is_total_dominating(g, total)
    return TdsCertificate(total, total.bit_count())


def _coloring_from_set(g: Graph, tds: int) -> CdColoring:
    """Coloring whose classes are the fresh neighborhoods of the set.

    Processing the set's vertices in increasing order, class ``i`` is
    what ``N(v_i)`` adds beyond the earlier classes.  Triangle-freeness
    keeps every neighborhood independent; empty classes are dropped.
    """
    covered = 0
    class_masks = []
    for v in iter_bits(tds):
        class_masks.append(g.adj[v] & ~covered)
        covered |= g.adj[v]
    return make_coloring(class_masks, bit_list(tds))


def _girth5_component(g: Graph, comp: int) -> Tuple[int, CdColoring]:
    """cd-chromatic number of a component mask of a girth >= 5 graph: its
    total domination number, with the coloring read off a minimum set."""
    found = _min_tds(g, active=comp)
    assert found is not None, "connected graph with >= 2 vertices has a TDS"
    return found.bit_count(), _coloring_from_set(g, found)


def cd_chromatic_girth5(g: Graph) -> Tuple[int, CdColoring]:
    """cd-chromatic number of a girth >= 5 graph, summed over components."""
    _require_girth5(g, "girth-5 solver")
    return solve_per_component(g, _girth5_component)

"""Type 0-5 pattern matchers: vertex deletion and recognition for q <= 3.

A connected graph is cd-colorable with at most three colors exactly
when it matches one of six structural patterns (Type 0 through Type 5),
each anchored by a small dominator tuple.  There is one matcher per
Type: ``delete_to_type1`` .. ``delete_to_type5`` find at most k
deletions that leave a remainder matching the pattern.  Once the
dominator tuple is fixed, the pattern's parts are forced, and cleaning
them reduces to vertex covers plus constrained odd cycle transversals.
The dominator vertices themselves are always exempted from the
mandatory deletions.  Every matcher works on ``g[active]`` for an
optional vertex mask ``active`` and hands sub-masks, never induced
copies, to vertex cover and odd cycle transversal.

The matchers of one ``partization`` call, and those of one component in
recognition, share one memo of vertex cover facts per set: its cover
number once a cover was found, else the largest budget at which it had
none.  Types 1, 3 and 4 ask about sets ``N(a) \\ N[b]`` of edges (a, b)
over and over, so most questions are settled by sizes alone; cover
masks are built only for the tuple that matches.  Type 2 checks each of
Type 1's edges once, then walks the retained vertices over the edges
that passed.

Types 4 and 5 also rule out dominators.  Take a cd-coloring with at
most three classes and a vertex d dominating one of them: the vertices
outside N[d] lie in the other classes, at most two, each independent,
so they induce a bipartite graph.  So if k deletions reach a pattern with
dominator d, ``g[active \\ N[d]]`` has an odd cycle transversal of size
<= k, and more than k vertex-disjoint triangles there rule d out: one
greedy packing of ``g[active \\ N[d]]``, stopped at k + 1, decides.  A
tuple with such a dominator cannot match, so skipping it leaves the
first match, and every certificate, as it was.  The verdict per vertex
is kept in the shared memo beside the cover facts.

Recognition is deletion with budget k = 0: ``cd_recognize_upto3``
matches each component of ``g[active]`` and returns the same deletion
record, with the vertices outside ``active`` deleted.  Type 0 (at most
three vertices) is a closed form.

``partization(g, k, q)`` routes deletion for every q: a closed form for
small remainders, three NO bounds, then the matchers (Type 1 for q = 2,
Types 1-5 for q >= 3).  Recognition is NP-hard for q >= 4, so there the
last step walks the deletion sets by size and decides each remainder
mask with the exact engine, within ``EXACT_WALK_BUDGET``.
"""

from __future__ import annotations

import functools
import itertools
from math import comb
from typing import Callable, Dict, Iterator, NamedTuple, Optional, Tuple

from .bits import bit_list, iter_bits, lowest_bit, mask_of
from .coloring import (
    CdColoring,
    ValidationReport,
    make_coloring,
    merge_colorings,
    solve_per_component,
    validate_cd_coloring,
)
from .errors import CapacityError
from .fpt import disjoint_triangles, odd_cycle_transversal, vertex_cover
from .graph import Graph, bipartition_within, iter_components, more_components_than

# The q >= 4 walk's deletion sets times the table bits of g's components,
# each charged at least 2**17 bits, one engine call's fixed cost; as no
# deletion grows a component, this bounds the work of every remainder.
EXACT_WALK_BUDGET = 1 << 34


class TypeWitness(NamedTuple):
    """Certificate that a connected graph matches one pattern type."""

    type_id: int
    dominators: Tuple[int, ...]
    coloring: CdColoring


class DeletionSolution(NamedTuple):
    """Deleted vertex set plus a certified coloring of what remains.

    ``plan`` names the structure of each remaining component
    (``IsolatedVertex`` or ``Type0``..``Type5``), or the one route that
    colored the whole remainder (``Exact``, ``Split``) with no witness.
    ``coloring`` speaks in the input graph's vertex ids.
    """

    deleted: int
    plan: Tuple[Tuple[str, Optional[TypeWitness]], ...]
    coloring: CdColoring

    @property
    def size(self) -> int:
        return self.deleted.bit_count()


def validate_deletion(g: Graph, sol: DeletionSolution, q: int) -> ValidationReport:
    """Check that the solution's coloring certifies the remainder with <= q
    colors, in place on the mask of the vertices not deleted."""
    if sol.deleted & ~g.full_mask:
        return ValidationReport(False, "deleted set references unknown vertices")
    if sol.coloring.q > q:
        return ValidationReport(False, f"coloring uses {sol.coloring.q} > {q} colors")
    return validate_cd_coloring(g, sol.coloring, g.full_mask & ~sol.deleted)


def _cover_number(g: Graph, cand: int, budget: int, memo: Dict[int, int]) -> Optional[int]:
    """Vertex cover number of ``g[cand]`` when it is at most ``budget``,
    else None.  ``memo`` holds what earlier calls learned about a set: its
    cover number once a cover was found (``vertex_cover`` returns a
    minimum one), or ``~b`` for the largest budget b at which it had none,
    which settles every smaller budget too."""
    known = memo.get(cand)
    if known is not None:
        if known >= 0:
            return known if known <= budget else None
        if budget <= ~known:
            return None
    if budget < 0:  # never recorded: ~b is negative only for b >= 0
        return None
    cover = vertex_cover(g, budget, cand)
    if cover is None:
        memo[cand] = ~budget
        return None
    memo[cand] = size = cover.bit_count()
    return size


def _fits(g: Graph, budget: int, cands, memo: Dict[int, int]) -> bool:
    """Whether the cover numbers of the pairwise disjoint ``cands`` add up
    to at most ``budget``."""
    for cand in cands:
        size = _cover_number(g, cand, budget, memo)
        if size is None:
            return False
        budget -= size
    return True


def _covers(g: Graph, budget: int, cands, memo: Dict[int, int]) -> Optional[int]:
    """Union of ``vertex_cover`` calls on the pairwise disjoint ``cands``
    in turn, each within what is left of ``budget``, or None.  The sizes
    are settled first through ``memo``; the masks come from the calls
    themselves, as the budget can change which minimum cover is found."""
    if not _fits(g, budget, cands, memo):
        return None
    union = 0
    for cand in cands:
        union |= vertex_cover(g, budget - union.bit_count(), cand)
    return union


def _far_packed(g: Graph, k: int, active: int, memo: Dict[int, int]) -> Callable[[int], bool]:
    """Test whether more than k disjoint triangles lie in ``g[active]``
    outside N[v], so that v dominates a class of no remainder after at
    most k deletions (the lemma in the module notes).  Verdicts are kept
    in ``memo`` under the key ``~v``, which no vertex mask takes."""

    def test(v: int) -> bool:
        known = memo.get(~v)
        if known is None:
            far = active & ~g.closed(v)
            memo[~v] = known = len(disjoint_triangles(g, far, k + 1)) > k
        return known

    return test


def _matched(
    t: int, dominators: Tuple[int, ...], classes, class_dominators, deleted: int
) -> DeletionSolution:
    """A connected remainder matching Type ``t``, colored by ``classes``."""
    coloring = make_coloring(classes, class_dominators)
    witness = TypeWitness(t, dominators, coloring)
    return DeletionSolution(deleted, ((f"Type{t}", witness),), coloring)


def _priced_edges(
    g: Graph, k: int, active: int, slack: int
) -> Iterator[Tuple[int, int, int, int]]:
    """Type 1's edges (x, y), x < y, of ``g[active]`` in its order, each with
    the set it keeps and the budget ``rem`` left after deleting the rest;
    edges with ``rem < -slack`` are skipped.

    The kept set is ``N(x) ^ N(y)`` within ``active``: the exclusive
    neighbors of x and y, plus the edge itself.
    """
    base = k - active.bit_count()
    for x in iter_bits(active):
        ax = g.adj[x]
        for y in iter_bits(ax & active & ~((2 << x) - 1)):  # y > x
            keep = (ax ^ g.adj[y]) & active
            rem = base + keep.bit_count()
            if rem >= -slack:
                yield x, y, keep, rem


def _type1_sides(g: Graph, x: int, y: int, keep: int) -> Tuple[int, int]:
    """The vertices of ``keep`` beside x and beside y at Type 1's edge (x, y)."""
    return keep & g.adj[x] & ~(1 << y), keep & g.adj[y] & ~(1 << x)


def _type1_at(
    g: Graph, x: int, y: int, keep: int, budget: int, active: int,
    memo: Dict[int, int],
) -> Optional[DeletionSolution]:
    """Type 1 on ``g[active]`` at edge (x, y), keeping ``keep`` and
    spending at most ``budget`` on the two sides' vertex covers."""
    x_cand, y_cand = _type1_sides(g, x, y, keep)
    s = _covers(g, budget, (x_cand, y_cand), memo)
    if s is None:
        return None
    return _matched(
        1, (x, y), [(y_cand & ~s) | (1 << x), (x_cand & ~s) | (1 << y)], [y, x],
        (active & ~keep) | s,
    )


def delete_to_type1(
    g: Graph, k: int, active: Optional[int] = None, _memo: Optional[Dict[int, int]] = None
) -> Optional[DeletionSolution]:
    """Deletions leaving a bipartite remainder with a dominating edge.

    For each edge (x, y): only exclusive neighbors of x and y can stay
    besides the edge itself, and what stays on each side must become
    independent, which is a vertex cover question per side.  An edge
    whose kept set is too small for the budget is skipped before either.
    """
    if active is None:
        active = g.full_mask
    memo = {} if _memo is None else _memo
    for x, y, keep, rem in _priced_edges(g, k, active, 0):
        sol = _type1_at(g, x, y, keep, rem, active, memo)
        if sol is not None:
            return sol
    return None


def delete_to_type2(
    g: Graph, k: int, active: Optional[int] = None, _memo: Optional[Dict[int, int]] = None
) -> Optional[DeletionSolution]:
    """Deletions leaving one retained vertex plus a Type 1 remainder.

    The retained vertex may end up connected to the bipartite part
    (a Type 2 remainder) or isolated beside it; both cost <= 3 colors.

    Each retained vertex v runs Type 1 on ``active`` minus v, over one
    list of Type 1's edges priced on ``active``.  Dropping v from
    ``active`` raises an edge's budget by one unless v is in its kept
    set, so the list keeps edges one short of the budget.  Each edge is
    checked once, on its whole kept set at that raised budget, and only
    the edges that pass are walked: one that fails there fails for every
    v.  If v misses its kept set, v meets the same check; otherwise v
    lies in exactly one side's candidates, and taking it out lowers that
    side's cover number by at most one, against a budget one lower.
    """
    if active is None:
        active = g.full_mask
    memo = {} if _memo is None else _memo
    edges = [
        (x, y, keep, rem)
        for x, y, keep, rem in _priced_edges(g, k, active, 1)
        if _fits(g, rem + 1, _type1_sides(g, x, y, keep), memo)
    ]
    if not edges:
        return None
    for v in iter_bits(active):
        bit = 1 << v
        rest = active & ~bit
        inner = None
        for x, y, keep, rem in edges:
            if x == v or y == v:
                continue
            if keep & bit:
                inner = _type1_at(g, x, y, keep & ~bit, rem, rest, memo)
            else:
                inner = _type1_at(g, x, y, keep, rem + 1, rest, memo)
            if inner is not None:
                break
        if inner is None:
            continue
        w1 = inner.plan[0][1]
        coloring = CdColoring(
            w1.coloring.classes + ((v,),),
            w1.coloring.dominators + (v,),
        )
        if g.adj[v] & active & ~inner.deleted:
            plan = (("Type2", TypeWitness(2, (v,), coloring)),)
        else:
            plan = (("IsolatedVertex", _type0(g, bit)), ("Type1", w1))
        return DeletionSolution(inner.deleted, plan, coloring)
    return None


def delete_to_type3(
    g: Graph, k: int, active: Optional[int] = None, _memo: Optional[Dict[int, int]] = None
) -> Optional[DeletionSolution]:
    """Deletions leaving an ordered dominating pair (x, y): an
    independent set around x and a non-edgeless bipartite part around y.

    The pair keeps ``N[x] | N(y)``; a pair whose kept set is too small
    for the budget is skipped at once.  Vertex cover cleans the
    independent side; a minimal y-avoiding odd cycle transversal cleans
    the bipartite side, and keeps an edge there whenever any transversal
    within the budget can.  A y-avoiding one is an odd cycle transversal
    of ``g[N(x)]``, so per x the search first asks whether any fits the
    budget, and remembers the budgets that settled.
    """
    if active is None:
        active = g.full_mask
    base = k - active.bit_count()
    memo = {} if _memo is None else _memo
    for x in iter_bits(active):
        b_cand = g.adj[x] & active  # candidate bipartite part, contains y
        x_keep = b_cand | (1 << x)
        # g[b_cand] has no OCT of size <= no_oct, and has one of size has_oct
        no_oct, has_oct = -1, b_cand.bit_count()
        for y in iter_bits(b_cand):
            keep = x_keep | (g.adj[y] & active)
            rem = base + keep.bit_count()
            if rem < 0:
                continue
            y_cand = keep & ~x_keep
            tau = _cover_number(g, y_cand, rem, memo)
            if tau is None:
                continue
            budget = rem - tau
            if budget <= no_oct:
                continue
            if budget < has_oct:
                found = odd_cycle_transversal(g, budget, b_cand)
                if found is None:
                    no_oct = budget
                    continue
                has_oct = found.bit_count()
            s2 = odd_cycle_transversal(g, budget, b_cand, 1 << y)
            if s2 is None:
                continue
            rest = b_cand & ~s2
            # a minimal transversal that leaves no edge is empty (putting
            # one vertex back into an edgeless set keeps it bipartite), so
            # then no transversal can keep an edge in the bipartite part
            if not any(g.adj[v] & rest for v in iter_bits(rest)):
                continue
            sides = bipartition_within(g, rest)
            s1 = vertex_cover(g, rem, y_cand)
            return _matched(
                3, (x, y), [(y_cand & ~s1) | (1 << x), *sides], [y, x, x],
                (active & ~keep) | s1 | s2,
            )
    return None


def delete_to_type4(
    g: Graph, k: int, active: Optional[int] = None, _memo: Optional[Dict[int, int]] = None
) -> Optional[DeletionSolution]:
    """Deletions leaving an ordered dominator triangle (x, y, z) with
    three vertex-cover-cleaned independent parts.

    Each of x, y and z dominates a class, so by the lemma in the module
    notes a tuple is skipped, before any cover, when more than k
    disjoint triangles lie outside the closed neighborhood of one of
    them.  The test runs once a tuple passes the budget check, and the
    rest of the walk of an x it rules out is skipped."""
    if active is None:
        active = g.full_mask
    base = k - active.bit_count()
    memo = {} if _memo is None else _memo
    far_packed = _far_packed(g, k, active, memo)
    for x in iter_bits(active):
        ax = g.adj[x] & active
        # a triangle's rotations have the same parts, so x is its lowest vertex
        above = ax & ~((2 << x) - 1)
        for y in iter_bits(above):
            if memo.get(~x):  # ruled out at an earlier triangle
                break
            ay = g.adj[y] & active
            for z in iter_bits(above & ay):
                x_cand = ax & ~g.closed(y)
                y_cand = ay & ~g.closed(z)
                z_cand = g.adj[z] & active & ~g.closed(x)
                keep = x_cand | y_cand | z_cand | (1 << x) | (1 << y) | (1 << z)
                rem = base + keep.bit_count()
                if rem < 0:
                    continue
                if far_packed(x) or far_packed(y):
                    break
                if far_packed(z):
                    continue
                s = _covers(g, rem, (x_cand, y_cand, z_cand), memo)
                if s is None:
                    continue
                xs, ys, zs = x_cand & ~s, y_cand & ~s, z_cand & ~s
                return _matched(
                    4, (x, y, z), [xs | (1 << y), ys | (1 << z), zs | (1 << x)],
                    [x, y, z], (active & ~keep) | s,
                )
    return None


def delete_to_type5(
    g: Graph, k: int, active: Optional[int] = None, _memo: Optional[Dict[int, int]] = None
) -> Optional[DeletionSolution]:
    """Deletions leaving a non-adjacent dominator pair (x, y) plus a
    shared neighbor z: z's private part becomes independent via a vertex
    cover, and the rest needs a z-avoiding transversal whose residual
    bipartition is pinned (z beside y's side, x-only and z-x-shared
    neighbors opposite).  The triple keeps ``N[x] | N[y] | N(z)`` but for
    the neighbors that only y and z share; a triple whose kept set is too
    small for the budget is skipped at once, and so is an x whose triples
    all keep too little: they keep at most ``N[x]``, the ``N(z)`` of each
    z in ``N(x)``, and one more ``N(y)``.

    x and y each dominate a class, so by the lemma in the module notes
    a dominator with more than k disjoint triangles outside its closed
    neighborhood is skipped, as in ``delete_to_type4``: x and y once a
    triple passes the budget check, and x also before its triples when
    its verdict is known (from Type 4, or from an earlier x's y), or
    when they number more than the vertices of ``active``, so that the
    test can pay."""
    if active is None:
        active = g.full_mask
    size = active.bit_count()
    base = k - size
    top = max(((g.adj[v] & active).bit_count() for v in iter_bits(active)), default=0)
    memo = {} if _memo is None else _memo
    far_packed = _far_packed(g, k, active, memo)
    for x in iter_bits(active):
        ax = g.adj[x] & active
        reach = ax | (1 << x)
        beyond = ~reach  # outside N[x]
        walk = 0  # (y, z) pairs below: z in N(x), y in N(z) beyond
        for z in iter_bits(ax):
            az = g.adj[z] & active
            reach |= az
            walk += (az & beyond).bit_count()
        if base + reach.bit_count() + top < 0:
            continue
        if memo.get(~x) or walk > size and far_packed(x):
            continue
        for y in iter_bits(reach & beyond):  # y shares a neighbor z with x
            ay = g.adj[y] & active
            pair = ax | ay | (1 << x) | (1 << y)
            for z in iter_bits(ax & ay):
                az = g.adj[z] & active
                knockout = (ay & az) & ~ax  # cannot sit anywhere, must go
                keep = (pair | az) & ~knockout
                rem = base + keep.bit_count()
                if rem < 0:
                    continue
                if far_packed(x) or far_packed(y):
                    break
                z_cand = az & ~pair
                tau = _cover_number(g, z_cand, rem, memo)
                if tau is None:
                    continue
                b_cand = (1 << z) | ((ax | ay) & ~knockout)
                p_dem = ((1 << z) | (ay & ~ax & ~az)) & b_cand
                q_dem = ((ax & ~ay & ~az) | (ax & az & ~ay) | (ax & ay & az)) & b_cand
                s2 = odd_cycle_transversal(g, rem - tau, b_cand, 1 << z, p_dem, q_dem)
                if s2 is None:
                    continue
                y_side, x_side = bipartition_within(g, b_cand & ~s2, p_dem, q_dem)
                s1 = vertex_cover(g, rem, z_cand)
                # demand-free vertices of b_cand lie in ax & ay, and
                # the demands pin the rest
                assert not (x_side & ~ax or y_side & ~ay)
                return _matched(
                    5, (x, y, z),
                    [x_side, y_side, (z_cand & ~s1) | (1 << x) | (1 << y)],
                    [x, y, z], (active & ~keep) | s1 | s2,
                )
    return None


_TYPE_SOLVERS = (
    delete_to_type1,
    delete_to_type2,
    delete_to_type3,
    delete_to_type4,
    delete_to_type5,
)


def _type0(g: Graph, active: int) -> Optional[TypeWitness]:
    """At most three vertices: one singleton class per vertex ``v``,
    dominated by the lowest vertex of ``N[v]``.  On K1, K2 and K3 this
    is the partition-search oracle's certificate."""
    if active.bit_count() > 3:
        return None
    vertices = bit_list(active)
    coloring = make_coloring(
        [1 << v for v in vertices],
        [lowest_bit(g.closed(v) & active) for v in vertices],
    )
    return TypeWitness(0, (), coloring)


def _component_upto3(g: Graph, comp: int) -> Optional[Tuple[str, TypeWitness]]:
    if comp.bit_count() == 1:
        return "IsolatedVertex", _type0(g, comp)
    memo: Dict[int, int] = {}  # cover numbers, shared by the matchers
    sol = _TYPE_SOLVERS[0](g, 0, comp, _memo=memo)
    if sol is not None:
        return sol.plan[0]
    w = _type0(g, comp)
    if w is not None:
        return "Type0", w
    for solver in _TYPE_SOLVERS[1:]:
        sol = solver(g, 0, comp, _memo=memo)
        if sol is not None:
            return sol.plan[0]
    return None


def cd_recognize_upto3(
    g: Graph, active: Optional[int] = None
) -> Optional[DeletionSolution]:
    """Deletion record of ``g[active]`` when it is <= 3 cd-colorable: the
    vertices outside ``active`` are deleted, and the plan holds one
    witness per component, by lowest vertex.

    Components are recognized separately, each costing its witness's
    class count: a lone vertex one color, a bipartite component with a
    dominating edge two, any other matched pattern three.  None when the
    component sum exceeds three.
    """
    if active is None:
        active = g.full_mask
    total = 0
    plan = []
    for comp in iter_components(g, active):
        entry = _component_upto3(g, comp)
        if entry is None:
            return None
        total += entry[1].coloring.q
        if total > 3:
            return None
        plan.append(entry)
    coloring = merge_colorings([w.coloring for _, w in plan])
    return DeletionSolution(g.full_mask & ~active, tuple(plan), coloring)


def _small_remainder(g: Graph, k: int, keep_limit: int) -> Optional[DeletionSolution]:
    """Keep the lowest-index vertices when almost everything may go; the
    at most ``keep_limit`` kept vertices need at most one color each."""
    if g.n - k > keep_limit:
        return None
    return cd_recognize_upto3(g, (1 << min(g.n, keep_limit)) - 1)


def _keeps_too_many(g: Graph, k: int, q: int) -> bool:
    """True when no remainder of ``g`` after at most k deletions can be
    q-cd-colorable: a class of two or more vertices is independent, so it
    lies in the open neighborhood of its dominator, and each class holds
    at most max(Δ, 1) vertices."""
    return g.n - k > q * max(max(map(int.bit_count, g.adj), default=0), 1)


def _greedy_clique(g: Graph) -> int:
    """Size of a clique grown by adding, at each step, the candidate with
    the most candidate neighbors (ties to the lowest index)."""
    cands, size = g.full_mask, 0
    while cands:
        v = max(iter_bits(cands), key=lambda u: (g.adj[u] & cands).bit_count())
        cands, size = cands & g.adj[v], size + 1
    return size


def _ruled_out(g: Graph, k: int, q: int) -> bool:
    """True when one of three bounds, each valid for every q, answers NO:
    too many vertices would remain (``_keeps_too_many``); ``g`` has more
    than q + k components, of which k deletions empty at most k while
    every other one needs a class of its own; or a clique C has
    |C| - k > q, as k deletions leave at least |C| - k of its vertices,
    each in a class of its own.  The cheap checks run first."""
    return (
        _keeps_too_many(g, k, q)
        or more_components_than(g, g.full_mask, q + k)
        or _greedy_clique(g) - k > q
    )


def partization(g: Graph, k: int, q: int) -> Optional[DeletionSolution]:
    """Delete at most k vertices so the rest is q-cd-colorable.

    A remainder of at most min(q, 3) vertices always works; for q <= 1
    nothing else can.  The answer is NO at once with more than q + k
    components, q·max(Δ, 1) remaining vertices, Δ being the maximum
    degree, or a greedy clique of more than q + k vertices
    (``_ruled_out``).  Then a single connected remainder of each
    type in order: Type 1 for q = 2, Types 1-5 for q >= 3; a lone vertex
    beside a Type 1 component is covered by the Type 2 pass, whose inner
    search may delete the retained vertex's neighborhood.  For q >= 4,
    where recognition is NP-hard, ``_exact_walk`` decides last.
    """
    if k < 0 or q < 0:
        return None
    small = _small_remainder(g, k, min(q, 3))
    if small is not None or q <= 1 or _ruled_out(g, k, q):
        return small
    memo: Dict[int, int] = {}  # cover numbers, shared by the matchers
    for solver in _TYPE_SOLVERS[:1] if q == 2 else _TYPE_SOLVERS:
        sol = solver(g, k, _memo=memo)
        if sol is not None:
            return sol
    return None if q <= 3 else _exact_walk(g, k, q)


def _exact_walk(g: Graph, k: int, q: int) -> Optional[DeletionSolution]:
    """The first deletion set, by size and then in ``itertools.combinations``
    order, whose remainder the exact engine colors with at most q classes.
    Each remainder runs through ``solve_per_component`` over one cache of
    engine answers per component mask, as a deletion set leaves most
    components untouched; the winner keeps the coloring that call merged.
    CapacityError before any solve past the cap or the budget, counted in
    false-twin groups, as twins stay in G - S."""
    from .exact import DEFAULT_EXACT_CAP, cd_chromatic_exact, false_twins

    sizes = [len(false_twins(g, comp)) for comp in iter_components(g, g.full_mask)]
    if max(sizes, default=0) > DEFAULT_EXACT_CAP:
        raise CapacityError(
            f"a component exceeds DEFAULT_EXACT_CAP={DEFAULT_EXACT_CAP}: "
            f"{max(sizes)} vertices after merging false twins"
        )
    bits = sum(max(1 << size, 1 << 17) for size in sizes)
    sets = itertools.accumulate(comb(g.n, size) for size in range(min(k, g.n) + 1))
    if any(count * bits > EXACT_WALK_BUDGET for count in sets):  # stops at the first
        raise CapacityError(
            f"q >= 4 deletion walk exceeds EXACT_WALK_BUDGET={EXACT_WALK_BUDGET}"
        )
    answers = functools.cache(lambda comp: cd_chromatic_exact(g, active=comp))
    for size in range(min(k, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            rest = g.full_mask & ~mask_of(combo)
            number, coloring = solve_per_component(g, lambda _, comp: answers(comp), rest)
            if number <= q:
                return DeletionSolution(mask_of(combo), (("Exact", None),), coloring)
    return None


def partization3(g: Graph, k: int) -> Optional[DeletionSolution]:
    """``partization`` with q = 3."""
    return partization(g, k, 3)


def partization2(g: Graph, k: int) -> Optional[DeletionSolution]:
    """``partization`` with q = 2."""
    return partization(g, k, 2)

"""Type 0-5 pattern matchers: vertex deletion and recognition for q <= 3.

A connected graph is cd-colorable with at most three colors exactly
when it matches one of six structural patterns (Type 0 through Type 5),
each anchored by a small dominator tuple.  There is one matcher per
Type: ``delete_to_type1`` .. ``delete_to_type5`` find at most k
deletions that leave a remainder matching the pattern.  Once the
dominator tuple is fixed, the pattern's parts are forced, and cleaning
them reduces to vertex covers plus constrained odd cycle transversals.
The dominator vertices themselves are always exempted from the
mandatory deletions.

Recognition is deletion with budget k = 0: ``recognize_type`` returns
the matcher's witness, and ``cd_recognize_upto3`` sums over components.
Type 0 (at most three vertices) is a closed form.

``partization_bruteforce`` is the validation oracle: exhaustive over
deletion sets, scoring remainders with the partition-search oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .bits import iter_bits, lowest_bit, mask_of
from .coloring import (
    CdColoring,
    ValidationReport,
    make_coloring,
    merge_colorings,
    validate_cd_coloring,
)
from .errors import CapacityError, PreconditionError
from .exact import cd_chromatic_bruteforce
from .fpt import oct_excluding, oct_with_forced_sides, vertex_cover
from .graph import Graph, bipartition_within, components_within, is_connected

BRUTE_N_CAP = 9
BRUTE_K_CAP = 9  # deleting more than n vertices never helps; n is capped anyway


@dataclass
class TypeWitness:
    """Certificate that a connected graph matches one pattern type."""

    type_id: int
    dominators: Tuple[int, ...]
    parts: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    coloring: CdColoring = CdColoring((), ())

    def relabeled(self, mapping: Sequence[int]) -> "TypeWitness":
        """Apply a vertex renaming (index -> mapping[index])."""
        return TypeWitness(
            self.type_id,
            tuple(mapping[d] for d in self.dominators),
            {name: tuple(mapping[v] for v in vs) for name, vs in self.parts.items()},
            self.coloring.relabeled(mapping),
        )


@dataclass
class RecognitionResult:
    """Total color count plus one witness per connected component."""

    q: int
    components: List[Tuple[int, TypeWitness]]  # (component mask, witness)

    def coloring(self) -> CdColoring:
        return merge_colorings([w.coloring for _, w in self.components])


@dataclass
class DeletionSolution:
    """Deleted vertex set plus a certified coloring of what remains.

    ``plan`` names the structure of each remaining component
    (``IsolatedVertex`` or ``Type0``..``Type5``); the oracle returns an
    empty plan.  ``coloring`` speaks in the input graph's vertex ids.
    """

    deleted: int
    plan: Tuple[Tuple[str, Optional[TypeWitness]], ...]
    coloring: CdColoring

    @property
    def size(self) -> int:
        return self.deleted.bit_count()


def validate_deletion(g: Graph, sol: DeletionSolution, q: int) -> ValidationReport:
    """Check that the solution's coloring certifies the remainder with <= q."""
    if sol.deleted & ~g.full_mask:
        return ValidationReport(False, "deleted set references unknown vertices")
    if sol.coloring.q > q:
        return ValidationReport(False, f"coloring uses {sol.coloring.q} > {q} colors")
    if sol.coloring.vertices_mask() & sol.deleted:
        return ValidationReport(False, "coloring colors a deleted vertex")
    if mask_of(sol.coloring.dominators) & sol.deleted:
        return ValidationReport(False, "a dominator was deleted")
    sub, ids = g.without(sol.deleted)
    pos = {old: new for new, old in enumerate(ids)}
    try:
        local = CdColoring(
            tuple(tuple(pos[v] for v in cls) for cls in sol.coloring.classes),
            tuple(pos[d] for d in sol.coloring.dominators),
        )
    except KeyError:
        return ValidationReport(False, "coloring references a deleted vertex")
    return validate_cd_coloring(sub, local)


def _vc_on(g: Graph, mask: int, budget: int) -> Optional[int]:
    """Minimum vertex cover of the induced subgraph, in original ids."""
    if budget < 0:
        return None
    sub, ids = g.induced(mask)
    found = vertex_cover(sub, budget)
    if found is None:
        return None
    return mask_of(ids[v] for v in iter_bits(found))


def delete_to_type1(g: Graph, k: int) -> Optional[DeletionSolution]:
    """Deletions leaving a bipartite remainder with a dominating edge.

    For each edge (x, y): only exclusive neighbors of x and y can stay
    besides the edge itself, and what stays on each side must become
    independent, which is a vertex cover question per side.
    """
    full = g.full_mask
    for x, y in g.edges():
        x_cand = g.adj[x] & ~g.closed(y)
        y_cand = g.adj[y] & ~g.closed(x)
        mandatory = full & ~(x_cand | y_cand | (1 << x) | (1 << y))
        rem = k - mandatory.bit_count()
        if rem < 0:
            continue
        s1 = _vc_on(g, x_cand, rem)
        if s1 is None:
            continue
        s2 = _vc_on(g, y_cand, rem - s1.bit_count())
        if s2 is None:
            continue
        class_a = (y_cand & ~s2) | (1 << x)
        class_b = (x_cand & ~s1) | (1 << y)
        witness = TypeWitness(
            1,
            (x, y),
            {"A": tuple(iter_bits(class_a)), "B": tuple(iter_bits(class_b))},
            make_coloring([class_a, class_b], [y, x]),
        )
        return DeletionSolution(
            mandatory | s1 | s2, (("Type1", witness),), witness.coloring
        )
    return None


def delete_to_type2(g: Graph, k: int) -> Optional[DeletionSolution]:
    """Deletions leaving one retained vertex plus a Type 1 remainder.

    The retained vertex may end up connected to the bipartite part
    (a Type 2 remainder) or isolated beside it; both cost <= 3 colors.
    """
    for x in range(g.n):
        sub, ids = g.without(1 << x)
        inner = delete_to_type1(sub, k)
        if inner is None:
            continue
        deleted = mask_of(ids[v] for v in iter_bits(inner.deleted))
        w1 = inner.plan[0][1].relabeled(ids)
        coloring = CdColoring(
            w1.coloring.classes + ((x,),),
            w1.coloring.dominators + (x,),
        )
        kept_rest = g.full_mask & ~deleted & ~(1 << x)
        if g.adj[x] & kept_rest:
            plan = (
                (
                    "Type2",
                    TypeWitness(2, (x,), dict(w1.parts), coloring),
                ),
            )
        else:
            lone = TypeWitness(0, (), {}, CdColoring(((x,),), (x,)))
            plan = (("IsolatedVertex", lone), ("Type1", w1))
        return DeletionSolution(deleted, plan, coloring)
    return None


def delete_to_type3(g: Graph, k: int) -> Optional[DeletionSolution]:
    """Deletions leaving an ordered dominating pair (x, y): an
    independent set around x and a non-edgeless bipartite part around y.

    Vertex cover cleans the independent side; a minimal y-avoiding odd
    cycle transversal cleans the bipartite side, and keeps an edge there
    whenever any transversal within the budget can.
    """
    full = g.full_mask
    for x in range(g.n):
        for y in iter_bits(g.adj[x]):
            y_cand = g.adj[y] & ~g.closed(x)
            b_cand = g.adj[x]  # candidate bipartite part, contains y
            mandatory = full & ~(y_cand | b_cand | (1 << x))
            rem = k - mandatory.bit_count()
            if rem < 0:
                continue
            s1 = _vc_on(g, y_cand, rem)
            if s1 is None:
                continue
            budget = rem - s1.bit_count()
            sub_b, ids_b = g.induced(b_cand)
            y_local = ids_b.index(y)
            found = oct_excluding(sub_b, y_local, budget)
            if found is None:
                continue
            s2 = mask_of(ids_b[v] for v in iter_bits(found))
            rest = b_cand & ~s2
            # a minimal transversal that leaves no edge is empty (putting
            # one vertex back into an edgeless set keeps it bipartite), so
            # then no transversal can keep an edge in the bipartite part
            if not any(g.adj[v] & rest for v in iter_bits(rest)):
                continue
            sides = bipartition_within(g, rest)
            class1 = (y_cand & ~s1) | (1 << x)
            witness = TypeWitness(
                3,
                (x, y),
                {
                    "X": tuple(iter_bits(rest & ~(1 << y))),
                    "Y": tuple(iter_bits(y_cand & ~s1)),
                },
                make_coloring([class1, sides[0], sides[1]], [y, x, x]),
            )
            return DeletionSolution(
                mandatory | s1 | s2, (("Type3", witness),), witness.coloring
            )
    return None


def delete_to_type4(g: Graph, k: int) -> Optional[DeletionSolution]:
    """Deletions leaving an ordered dominator triangle (x, y, z) with
    three vertex-cover-cleaned independent parts."""
    full = g.full_mask
    for x in range(g.n):
        ax = g.adj[x]
        for y in iter_bits(ax):
            ay = g.adj[y]
            for z in iter_bits(ax & ay):
                x_cand = ax & ~g.closed(y)
                y_cand = ay & ~g.closed(z)
                z_cand = g.adj[z] & ~g.closed(x)
                trio = (1 << x) | (1 << y) | (1 << z)
                mandatory = full & ~(x_cand | y_cand | z_cand | trio)
                rem = k - mandatory.bit_count()
                if rem < 0:
                    continue
                s1 = _vc_on(g, x_cand, rem)
                if s1 is None:
                    continue
                s2 = _vc_on(g, y_cand, rem - s1.bit_count())
                if s2 is None:
                    continue
                s3 = _vc_on(g, z_cand, rem - s1.bit_count() - s2.bit_count())
                if s3 is None:
                    continue
                xs, ys, zs = x_cand & ~s1, y_cand & ~s2, z_cand & ~s3
                witness = TypeWitness(
                    4,
                    (x, y, z),
                    {
                        "X": tuple(iter_bits(xs)),
                        "Y": tuple(iter_bits(ys)),
                        "Z": tuple(iter_bits(zs)),
                    },
                    make_coloring(
                        [xs | (1 << y), ys | (1 << z), zs | (1 << x)], [x, y, z]
                    ),
                )
                return DeletionSolution(
                    mandatory | s1 | s2 | s3,
                    (("Type4", witness),),
                    witness.coloring,
                )
    return None


def delete_to_type5(g: Graph, k: int) -> Optional[DeletionSolution]:
    """Deletions leaving a non-adjacent dominator pair (x, y) plus a
    shared neighbor z: z's private part becomes independent via a vertex
    cover, and the rest needs a z-avoiding transversal whose residual
    bipartition is pinned (z beside y's side, x-only and z-x-shared
    neighbors opposite)."""
    full = g.full_mask
    for x in range(g.n):
        for y in range(g.n):
            if y == x or g.has_edge(x, y):
                continue
            ax, ay = g.adj[x], g.adj[y]
            for z in iter_bits(ax & ay):
                az = g.adj[z]
                z_cand = az & ~g.closed(x) & ~g.closed(y)
                knockout = (ay & az) & ~ax  # cannot sit anywhere, must go
                b_cand = (1 << z) | ((ax | ay) & ~knockout)
                mandatory = full & ~(z_cand | b_cand | (1 << x) | (1 << y))
                rem = k - mandatory.bit_count()
                if rem < 0:
                    continue
                s1 = _vc_on(g, z_cand, rem)
                if s1 is None:
                    continue
                budget = rem - s1.bit_count()
                p_dem = ((1 << z) | (ay & ~ax & ~az)) & b_cand
                q_dem = ((ax & ~ay & ~az) | (ax & az & ~ay) | (ax & ay & az)) & b_cand
                sub_b, ids_b = g.induced(b_cand)
                pos_b = {old: new for new, old in enumerate(ids_b)}
                res = oct_with_forced_sides(
                    sub_b,
                    mask_of(pos_b[v] for v in iter_bits(p_dem)),
                    mask_of(pos_b[v] for v in iter_bits(q_dem)),
                    pos_b[z],
                    budget,
                )
                if res is None:
                    continue
                found, (side_p, side_q) = res
                s2 = mask_of(ids_b[v] for v in iter_bits(found))
                y_side = mask_of(ids_b[v] for v in iter_bits(side_p))
                x_side = mask_of(ids_b[v] for v in iter_bits(side_q))
                # demand-free vertices of b_cand lie in ax & ay, and
                # demand_sides pins the rest
                assert not (x_side & ~ax or y_side & ~ay)
                zs = z_cand & ~s1
                witness = TypeWitness(
                    5,
                    (x, y, z),
                    {
                        "X": tuple(iter_bits(x_side)),
                        "Y": tuple(iter_bits(y_side)),
                        "Z": tuple(iter_bits(zs)),
                    },
                    make_coloring(
                        [x_side, y_side, zs | (1 << x) | (1 << y)], [x, y, z]
                    ),
                )
                return DeletionSolution(
                    mandatory | s1 | s2, (("Type5", witness),), witness.coloring
                )
    return None


_TYPE_SOLVERS = (
    delete_to_type1,
    delete_to_type2,
    delete_to_type3,
    delete_to_type4,
    delete_to_type5,
)


def _type0(g: Graph) -> Optional[TypeWitness]:
    """At most three vertices: one singleton class per vertex ``v``,
    dominated by the lowest vertex of ``N[v]``.  On K1, K2 and K3 this
    is the partition-search oracle's certificate."""
    if g.n > 3:
        return None
    vertices = range(g.n)
    coloring = make_coloring(
        [1 << v for v in vertices], [lowest_bit(g.closed(v)) for v in vertices]
    )
    return TypeWitness(0, (), {}, coloring)


def recognize_type(g: Graph, t: int) -> Optional[TypeWitness]:
    """Witness that connected ``g`` matches pattern type ``t``, or None.

    Types 1-5 run the deletion matcher with budget 0.
    """
    if t not in range(6):
        raise ValueError(f"unknown type {t}")
    if not is_connected(g):
        raise PreconditionError("type recognition works on connected graphs")
    if t == 0:
        return _type0(g)
    sol = _TYPE_SOLVERS[t - 1](g, 0)
    return None if sol is None else sol.plan[0][1]


def _component_upto3(g: Graph) -> Optional[Tuple[int, TypeWitness]]:
    if g.n == 1:
        return 1, TypeWitness(0, (), {}, CdColoring(((0,),), (0,)))
    w = recognize_type(g, 1)
    if w is not None:
        return 2, w
    for t in (0, 2, 3, 4, 5):
        w = recognize_type(g, t)
        if w is not None:
            return 3, w
    return None


def cd_recognize_upto3(g: Graph) -> Optional[RecognitionResult]:
    """Color count and witnesses when the graph is <= 3 cd-colorable.

    Components are recognized separately: a lone vertex costs one color,
    a bipartite component with a dominating edge two, any other matched
    pattern three.  None when the component sum exceeds three.
    """
    total = 0
    out: List[Tuple[int, TypeWitness]] = []
    for comp in components_within(g, g.full_mask):
        sub, ids = g.induced(comp)
        res = _component_upto3(sub)
        if res is None:
            return None
        q_i, witness = res
        total += q_i
        if total > 3:
            return None
        out.append((comp, witness.relabeled(ids)))
    return RecognitionResult(total, out)


def _small_remainder(g: Graph, k: int, keep_limit: int) -> Optional[DeletionSolution]:
    """Keep the lowest-index vertices when almost everything may go."""
    if g.n - k > keep_limit:
        return None
    kept = min(g.n, keep_limit)
    kept_mask = (1 << kept) - 1
    deleted = g.full_mask & ~kept_mask
    sub, ids = g.induced(kept_mask)
    if sub.n == 0:
        return DeletionSolution(deleted, (), CdColoring((), ()))
    rec = cd_recognize_upto3(sub)
    assert rec is not None and rec.q <= keep_limit
    plan = []
    for comp, w in rec.components:
        name = "IsolatedVertex" if comp.bit_count() == 1 else f"Type{w.type_id}"
        plan.append((name, w))
    return DeletionSolution(deleted, tuple(plan), rec.coloring().relabeled(ids))


def partization3(g: Graph, k: int) -> Optional[DeletionSolution]:
    """Delete at most k vertices so the rest is 3-cd-colorable.

    Pattern order: a remainder of at most 3 vertices always works, then
    a single connected remainder of each type in order.  A lone vertex
    beside a Type 1 component is already covered by the Type 2 pass,
    whose inner search may delete the retained vertex's neighborhood.
    """
    if k < 0:
        return None
    small = _small_remainder(g, k, 3)
    if small is not None:
        return small
    for solver in _TYPE_SOLVERS:
        sol = solver(g, k)
        if sol is not None:
            return sol
    return None


def partization2(g: Graph, k: int) -> Optional[DeletionSolution]:
    """Delete at most k vertices so the rest is 2-cd-colorable."""
    if k < 0:
        return None
    small = _small_remainder(g, k, 2)
    if small is not None:
        return small
    return delete_to_type1(g, k)


def partization_bruteforce(g: Graph, k: int, q: int) -> Optional[DeletionSolution]:
    """Exhaustive deletion oracle over all subsets of size <= k."""
    if g.n > BRUTE_N_CAP or k > BRUTE_K_CAP:
        raise CapacityError(
            f"brute-force caps are n <= {BRUTE_N_CAP}, k <= {BRUTE_K_CAP}"
        )
    if q < 0 or k < 0:
        return None
    for size in range(min(k, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            deleted = mask_of(combo)
            sub, ids = g.without(deleted)
            qq, coloring = cd_chromatic_bruteforce(sub)
            if qq <= q:
                return DeletionSolution(deleted, (), coloring.relabeled(ids))
    return None

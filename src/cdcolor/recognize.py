"""Polynomial recognition of graphs that are cd-colorable with <= 3 colors.

A connected graph needs at most three colors exactly when it matches
one of six structural patterns (Type 0 through Type 5), each anchored
by a small dominator tuple.  Each recognizer derives the unique
candidate parts for a dominator tuple, verifies the pattern's clauses,
and converts the parts into an explicit coloring.  Disconnected graphs
are handled additively over components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .bits import iter_bits, lowest_bit
from .coloring import CdColoring, make_coloring, merge_colorings
from .errors import PreconditionError
from .fpt import demand_sides
from .graph import Graph, bipartition, bipartition_within, components_within, is_connected


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


def has_dominating_edge(g: Graph) -> Optional[Tuple[int, int]]:
    """First edge whose endpoint neighborhoods cover every vertex."""
    full = g.full_mask
    for u, v in g.edges():
        if g.adj[u] | g.adj[v] == full:
            return (u, v)
    return None


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


def _type1(g: Graph) -> Optional[TypeWitness]:
    sides = bipartition(g)
    if sides is None:
        return None
    edge = has_dominating_edge(g)
    if edge is None:
        return None
    x, y = edge
    side_a, side_b = sides
    if (side_a >> y) & 1:
        x, y = y, x  # x on side A, y on side B
    # every A vertex avoids x's side, so it must be a neighbor of y
    return TypeWitness(
        1,
        edge,
        {"A": tuple(iter_bits(side_a)), "B": tuple(iter_bits(side_b))},
        make_coloring([side_a, side_b], [y, x]),
    )


def _type2(g: Graph) -> Optional[TypeWitness]:
    for v in range(g.n):
        rest_mask = g.full_mask & ~(1 << v)
        sub, ids = g.induced(rest_mask)
        w = _type1(sub)
        if w is None:
            continue
        w = w.relabeled(ids)
        coloring = CdColoring(
            w.coloring.classes + ((v,),), w.coloring.dominators + (v,)
        )
        return TypeWitness(2, (v,), w.parts, coloring)
    return None


def _type3(g: Graph) -> Optional[TypeWitness]:
    full = g.full_mask
    for x in range(g.n):
        for y in iter_bits(g.adj[x]):
            x_part = g.adj[x] & ~(1 << y)  # X = N(x) minus y
            y_part = full & ~g.closed(x) & ~(1 << y)
            if y_part & ~g.adj[y]:
                continue  # Y must be dominated by y
            if any(g.adj[v] & y_part for v in iter_bits(y_part)):
                continue  # Y independent (x has no Y edges by construction)
            b_mask = g.adj[x]  # X plus y, the bipartite side
            sides = bipartition_within(g, b_mask)
            if sides is None:
                continue
            if not any(g.adj[v] & b_mask for v in iter_bits(b_mask)):
                continue  # needs at least one edge
            class1 = y_part | (1 << x)
            return TypeWitness(
                3,
                (x, y),
                {"X": tuple(iter_bits(x_part)), "Y": tuple(iter_bits(y_part))},
                make_coloring([class1, sides[0], sides[1]], [y, x, x]),
            )
    return None


def _type4(g: Graph) -> Optional[TypeWitness]:
    full = g.full_mask
    for x in range(g.n):
        ax = g.adj[x]
        for y in iter_bits(ax):
            ay = g.adj[y]
            for z in iter_bits(ax & ay):
                x_part = ax & ~g.closed(y)
                y_part = ay & ~g.closed(z)
                z_part = g.adj[z] & ~g.closed(x)
                trio = (1 << x) | (1 << y) | (1 << z)
                # parts are pairwise disjoint and avoid the triangle by
                # construction; only coverage can fail
                if x_part | y_part | z_part | trio != full:
                    continue
                ok = True
                for part in (x_part, y_part, z_part):
                    if any(g.adj[v] & part for v in iter_bits(part)):
                        ok = False
                        break
                if not ok:
                    continue
                return TypeWitness(
                    4,
                    (x, y, z),
                    {
                        "X": tuple(iter_bits(x_part)),
                        "Y": tuple(iter_bits(y_part)),
                        "Z": tuple(iter_bits(z_part)),
                    },
                    make_coloring(
                        [x_part | (1 << y), y_part | (1 << z), z_part | (1 << x)],
                        [x, y, z],
                    ),
                )
    return None


def _type5(g: Graph) -> Optional[TypeWitness]:
    full = g.full_mask
    for x in range(g.n):
        for y in range(g.n):
            if y == x or g.has_edge(x, y):
                continue
            common = g.adj[x] & g.adj[y]
            for z in iter_bits(common):
                z_part = full & ~(g.closed(x) | g.closed(y))
                if z_part & ~g.adj[z]:
                    continue  # Z must be dominated by z
                if any(g.adj[v] & z_part for v in iter_bits(z_part)):
                    continue  # Z independent; Z avoids N(x), N(y) by construction
                w_mask = g.adj[x] | g.adj[y]
                sides = demand_sides(
                    g, full & ~w_mask, w_mask & ~g.adj[y], w_mask & ~g.adj[x]
                )
                if sides is None:
                    continue
                x_side, y_side = sides
                class3 = z_part | (1 << x) | (1 << y)
                return TypeWitness(
                    5,
                    (x, y, z),
                    {
                        "X": tuple(iter_bits(x_side)),
                        "Y": tuple(iter_bits(y_side)),
                        "Z": tuple(iter_bits(z_part)),
                    },
                    make_coloring([x_side, y_side, class3], [x, y, z]),
                )
    return None


_RECOGNIZERS = {0: _type0, 1: _type1, 2: _type2, 3: _type3, 4: _type4, 5: _type5}


def recognize_type(g: Graph, t: int) -> Optional[TypeWitness]:
    """Witness that connected ``g`` matches pattern type ``t``, or None."""
    if t not in _RECOGNIZERS:
        raise ValueError(f"unknown type {t}")
    if not is_connected(g):
        raise PreconditionError("type recognition works on connected graphs")
    return _RECOGNIZERS[t](g)


def _component_upto3(g: Graph) -> Optional[Tuple[int, TypeWitness]]:
    if g.n == 1:
        return 1, TypeWitness(0, (), {}, CdColoring(((0,),), (0,)))
    w = _type1(g)
    if w is not None:
        return 2, w
    for t in range(6):
        w = _RECOGNIZERS[t](g)
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

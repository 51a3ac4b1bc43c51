"""Class-domination coloring certificates and their validation.

A cd-coloring is a proper coloring in which every color class fits
inside the closed neighborhood of some vertex, its dominator.  The
closed-neighborhood convention makes a lone vertex 1-colorable; on
connected graphs with at least two vertices it coincides with the
open-neighborhood reading.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .bits import iter_bits, mask_of
from .graph import Graph, iter_components


_WRONG_SHAPE = (
    "certificate has the wrong shape: set, deleted, dominators "
    "and each class must be lists of vertex labels"
)


def label_reader(g: Graph) -> Callable[[object], Tuple[int, ...]]:
    """Reader of a certificate's lists of ``g``'s labels, as read from
    JSON: it returns a list's vertex ids, and raises ValueError for a
    value that is no list of labels or for a label that names no vertex,
    including one that equals a label but has another type (``True`` and
    ``8.0`` hash like the labels ``1`` and ``8``)."""
    index = {g.label(v): v for v in range(g.n)}

    def vertex(x) -> int:
        v = index[x]
        if type(x) is not type(g.label(v)):
            raise KeyError(x)
        return v

    def read(labels) -> Tuple[int, ...]:
        try:
            return tuple(map(vertex, labels))
        except KeyError as exc:
            raise ValueError(f"certificate references unknown vertex {exc}") from None
        except TypeError:  # not iterable, or an unhashable label
            raise ValueError(_WRONG_SHAPE) from None

    return read


class CdColoring(NamedTuple):
    """Color classes (tuples of vertices) plus one dominator per class."""

    classes: Tuple[Tuple[int, ...], ...]
    dominators: Tuple[int, ...]

    @property
    def q(self) -> int:
        return len(self.classes)

    def relabeled(self, mapping: Sequence[int]) -> "CdColoring":
        """Apply a vertex renaming (index -> mapping[index])."""
        return CdColoring(
            tuple(tuple(mapping[v] for v in cls) for cls in self.classes),
            tuple(mapping[d] for d in self.dominators),
        )

    def to_payload(self, g: Graph) -> dict:
        """JSON-shaped certificate using the graph's vertex labels."""
        return {
            "q": self.q,
            "classes": [[g.label(v) for v in cls] for cls in self.classes],
            "dominators": [g.label(d) for d in self.dominators],
        }

    @staticmethod
    def from_payload(payload: dict, g: Graph) -> "CdColoring":
        """The coloring a certificate names by ``g``'s labels; ValueError
        names a missing field, a wrong shape or an unknown vertex."""
        for field in ("classes", "dominators"):
            if field not in payload:
                raise ValueError(f"certificate has no {field!r} field")
        if not isinstance(payload["classes"], list):
            raise ValueError(_WRONG_SHAPE)
        read = label_reader(g)
        return CdColoring(tuple(map(read, payload["classes"])), read(payload["dominators"]))


def make_coloring(class_masks: Sequence[int], dominators: Sequence[int]) -> CdColoring:
    """Build a coloring from vertex-set masks, dropping empty classes."""
    classes = []
    doms = []
    for mask, d in zip(class_masks, dominators):
        if mask:
            classes.append(tuple(iter_bits(mask)))
            doms.append(d)
    return CdColoring(tuple(classes), tuple(doms))


def merge_colorings(parts: Iterable[CdColoring]) -> CdColoring:
    """Concatenate colorings of vertex-disjoint subgraphs."""
    classes: List[Tuple[int, ...]] = []
    doms: List[int] = []
    for c in parts:
        classes.extend(c.classes)
        doms.extend(c.dominators)
    return CdColoring(tuple(classes), tuple(doms))


def solve_per_component(
    g: Graph,
    solve: Callable[[Graph, int], Tuple[int, CdColoring]],
    active: Optional[int] = None,
) -> Tuple[int, CdColoring]:
    """Run ``solve(g, comp)`` on each connected component of ``g[active]``
    and add the answers.

    ``active`` defaults to all of ``g``.  The cd-chromatic number is
    additive over components.  ``solve`` answers in ``g``'s vertex ids;
    the colorings are concatenated in component order (by lowest
    vertex).  A one-vertex component is its own class without a call to
    ``solve``.  An empty vertex set has the empty coloring.
    """
    if active is None:
        active = g.full_mask
    answers: List[Tuple[int, CdColoring]] = []
    for comp in iter_components(g, active):
        v = comp.bit_length() - 1
        if g.adj[v] & active:
            answers.append(solve(g, comp))
        else:
            answers.append((1, CdColoring(((v,),), (v,))))
    return sum(q for q, _ in answers), merge_colorings(c for _, c in answers)


class ValidationReport(NamedTuple):
    ok: bool
    problem: Optional[str] = None


def validate_cd_coloring(
    g: Graph, coloring: CdColoring, active: Optional[int] = None
) -> ValidationReport:
    """Check a coloring of ``g[active]`` against all cd-coloring requirements.

    ``active`` is the vertex mask to color, all of ``g`` by default.
    Valid means: the classes partition ``active``, every class is
    nonempty and independent, and class ``i`` lies inside the closed
    neighborhood of ``dominators[i]``, which must be in ``active``.  The
    report names the first offending vertex, edge or class on failure,
    by the graph's vertex labels.
    """
    lab = g.label
    if active is None:
        active = g.full_mask
    if len(coloring.classes) != len(coloring.dominators):
        return ValidationReport(False, "class/dominator count mismatch")
    seen = 0
    for i, cls in enumerate(coloring.classes):
        if not cls:
            return ValidationReport(False, f"class {i} is empty")
        for v in cls:
            if not (0 <= v < g.n):
                return ValidationReport(False, f"class {i} references vertex {v}")
            if not (active >> v) & 1:
                return ValidationReport(
                    False, f"class {i} colors inactive vertex {lab(v)}"
                )
            if (seen >> v) & 1:
                return ValidationReport(False, f"vertex {lab(v)} colored twice")
            seen |= 1 << v
    if seen != active:
        missing = next(iter_bits(active & ~seen))
        return ValidationReport(False, f"vertex {lab(missing)} is uncolored")
    for i, cls in enumerate(coloring.classes):
        cmask = mask_of(cls)
        for v in cls:
            bad = g.adj[v] & cmask
            if bad:
                w = next(iter_bits(bad))
                return ValidationReport(
                    False, f"edge ({lab(v)}, {lab(w)}) inside class {i}"
                )
    for i, cls in enumerate(coloring.classes):
        d = coloring.dominators[i]
        if not (0 <= d < g.n):
            return ValidationReport(False, f"dominator {d} of class {i} out of range")
        if not (active >> d) & 1:
            return ValidationReport(
                False, f"dominator {lab(d)} of class {i} is inactive"
            )
        cmask = mask_of(cls)
        if cmask & ~g.closed(d):
            return ValidationReport(
                False, f"class {i} is not dominated by vertex {lab(d)}"
            )
    return ValidationReport(True)

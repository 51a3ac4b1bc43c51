"""Graph representation, parsing and structural predicates.

A :class:`Graph` stores one adjacency bitmask per vertex: bit ``v`` of
``adj[u]`` is set exactly when ``(u, v)`` is an edge.  Vertices are
0-indexed internally; parsed inputs keep their original names in
``labels`` for output.  Graphs are immutable after construction and all
predicates here are pure functions, so concurrent readers are safe.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .bits import bit_list, iter_bits, mask_of
from .errors import ParseError


class Graph:
    """Simple undirected graph over vertices ``0..n-1``.

    Invariants enforced at construction: adjacency is symmetric, no
    vertex is adjacent to itself, and the bitmask representation rules
    out multi-edges.  Isolated vertices are legal everywhere.
    """

    __slots__ = ("n", "adj", "labels")

    def __init__(self, n: int, adj: Sequence[int], labels: Optional[Sequence] = None):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(adj) != n:
            raise ValueError("adjacency list length must equal vertex count")
        for u, row in enumerate(adj):
            if row >> n:
                raise ValueError(f"adjacency row {u} references vertices >= {n}")
            if (row >> u) & 1:
                raise ValueError(f"vertex {u} has a self-loop")
        for u in range(n):
            for v in iter_bits(adj[u]):
                if not (adj[v] >> u) & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels length must equal vertex count")
            if len(set(labels)) != n:
                raise ValueError("labels must be unique")
        self.n = n
        self.adj = tuple(adj)
        self.labels = labels

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[Tuple[int, int]], labels: Optional[Sequence] = None
    ) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj, labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def closed(self, u: int) -> int:
        """Closed neighborhood mask of ``u`` (neighbors plus ``u``)."""
        return self.adj[u] | (1 << u)

    def edges(self) -> List[Tuple[int, int]]:
        """All edges ``(u, v)`` with ``u < v`` in lexicographic order."""
        out = []
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1)):
                out.append((u, u + 1 + v))
        return out

    def label(self, v: int):
        return self.labels[v] if self.labels is not None else v

    def label_list(self, mask: int) -> list:
        return [self.label(v) for v in iter_bits(mask)]

    def induced(self, mask: int) -> Tuple["Graph", List[int]]:
        """Induced subgraph on ``mask`` with the old vertex ids; ``self`` on the full mask."""
        if mask == self.full_mask:
            return self, list(range(self.n))
        ids = bit_list(mask)
        pos = {old: new for new, old in enumerate(ids)}
        adj = [0] * len(ids)
        for new, old in enumerate(ids):
            for w in iter_bits(self.adj[old] & mask):
                adj[new] |= 1 << pos[w]
        labels = tuple(self.label(v) for v in ids) if self.labels is not None else None
        return Graph(len(ids), adj, labels), ids

    def without(self, mask: int) -> Tuple["Graph", List[int]]:
        """Induced subgraph obtained by deleting the vertices in ``mask``."""
        return self.induced(self.full_mask & ~mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj == other.adj
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- parsing / serialization -------------------------------------------------

# Largest vertex count a parsed file may declare or name.  Every solver
# holds n-bit masks per vertex, so a few bytes naming a huge vertex would
# otherwise cost time and memory quadratic in that name.
MAX_VERTICES = 1 << 16


def _check_vertex_count(n: int, lineno: int) -> None:
    if n > MAX_VERTICES:
        raise ParseError(
            f"vertex count {n} exceeds the limit of {MAX_VERTICES}", lineno
        )


def parse_dimacs(text: str) -> Graph:
    """Parse DIMACS edge format: ``p edge n m`` header, ``e u v`` lines.

    The header's ``m`` must equal the number of edge lines; repeated
    edges among them merge into one.
    """
    n = m = header_line = None
    edges: List[Tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"malformed header {line!r}", lineno)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"malformed header {line!r}", lineno) from None
            if n < 0:
                raise ParseError("negative vertex count", lineno)
            _check_vertex_count(n, lineno)
            header_line = lineno
        elif parts[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", lineno)
            if len(parts) != 3:
                raise ParseError(f"malformed edge {line!r}", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"malformed edge {line!r}", lineno) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex index out of range in {line!r}", lineno)
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)
    if n is None:
        raise ParseError("missing problem line")
    if m != len(edges):
        raise ParseError(
            f"header declares m={m} but {len(edges)} edge lines follow", header_line
        )
    return Graph.from_edges(n, edges, labels=tuple(range(1, n + 1)))


def parse_edgelist(text: str) -> Graph:
    """Parse one ``u v`` pair per line; vertices are positive integers."""
    pairs: List[Tuple[int, int, int]] = []
    hi = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v' pair, got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex in {line!r}", lineno) from None
        if u < 1 or v < 1:
            raise ParseError(f"vertex names must be positive in {line!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        _check_vertex_count(max(u, v), lineno)
        pairs.append((u, v, lineno))
        hi = max(hi, u, v)
    if not pairs:
        raise ParseError("no edges found")
    return Graph.from_edges(
        hi, [(u - 1, v - 1) for u, v, _ in pairs], labels=tuple(range(1, hi + 1))
    )


def detect_format(text: str) -> str:
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        return "dimacs" if line.split()[0] == "p" else "edgelist"
    return "dimacs"


def parse_graph(text, fmt: str) -> Graph:
    """Parse ``text`` (str or bytes) in the given format (dimacs/edgelist)."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if fmt == "dimacs":
        return parse_dimacs(text)
    if fmt == "edgelist":
        return parse_edgelist(text)
    raise ValueError(f"unknown format {fmt!r}")


def to_dimacs(g: Graph, comments: Sequence[str] = ()) -> str:
    """Canonical DIMACS serialization (1-indexed, edges sorted)."""
    lines = [f"c {c}" for c in comments]
    edges = g.edges()
    lines.append(f"p edge {g.n} {len(edges)}")
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


# -- connectivity ------------------------------------------------------------


def component_sides(
    g: Graph, active: int
) -> Iterator[Tuple[int, Optional[Tuple[int, int]]]]:
    """Connected components of ``g[active]``, by lowest vertex, one
    breadth-first search each, with their two-colorings.

    Yields ``(comp, sides)``: ``sides`` holds the vertices at even and at
    odd distance from the component's lowest vertex, or is None when an
    edge joins two vertices of one layer (an odd cycle).  Start vertices
    come from one forward scan over the binary digits of ``active``, in
    which each claimed vertex is cleared, so only the current component
    is held, and a vertex with no active neighbor costs no search.
    """
    unclaimed = bytearray(bin(active)[:1:-1], "ascii")  # b"1" at each vertex
    start = unclaimed.find(49)
    while start >= 0:
        comp = frontier = 1 << start
        sides = [comp, 0]  # vertices at even and at odd distance
        parity = 0
        odd_cycle = False
        if not g.adj[start] & active:
            frontier = 0  # a lone vertex needs no search
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                unclaimed[v] = 48
                grow |= g.adj[v]
            if grow & frontier:
                odd_cycle = True
            grow &= active & ~comp
            comp |= grow
            parity ^= 1
            sides[parity] |= grow
            frontier = grow
        yield comp, None if odd_cycle else (sides[0], sides[1])
        start = unclaimed.find(49, start + 1)


def iter_components(g: Graph, active: int) -> Iterator[int]:
    """Connected components of ``g[active]``, by lowest vertex, one at a time."""
    return (comp for comp, _ in component_sides(g, active))


def connected_components(g: Graph) -> List[int]:
    """Vertex-set masks of the connected components, by lowest vertex."""
    return list(iter_components(g, g.full_mask))


def more_components_than(g: Graph, active: int, count: int) -> bool:
    """Whether ``g[active]`` has more than ``count`` components; stops
    after walking ``count + 1`` of them."""
    return next(islice(iter_components(g, active), count, None), None) is not None


# -- cycles and colorings ----------------------------------------------------


def girth(g: Graph, limit=float("inf")):
    """Length of a shortest cycle, or ``float('inf')`` for forests; with
    a ``limit``, ``min(girth, limit)``, searching no deeper than it needs.

    One breadth-first search per start vertex, a layer mask at a time
    (Itai and Rodeh, SIAM J. Comput. 1978).  An edge inside layer ``d``
    closes a walk of length ``2d + 1``, and a vertex with two neighbors
    in layer ``d`` closes one of length ``2d + 2``.  Each such walk
    holds a cycle no longer than itself, and every start on a shortest
    cycle finds its length, so the minimum over all starts is exact.
    """
    best = limit
    for s in range(g.n):
        seen = layer = 1 << s
        d = 0
        while layer and 2 * d + 1 < best:
            nxt = 0
            for u in iter_bits(layer):
                if g.adj[u] & layer:
                    best = 2 * d + 1
                    break
                new = g.adj[u] & ~seen
                if new & nxt:
                    best = 2 * d + 2
                nxt |= new
            seen, layer, d = seen | nxt, nxt, d + 1
    return best


def bipartition_within(
    g: Graph, active: int, first: int = 0, second: int = 0
) -> Optional[Tuple[int, int]]:
    """Two-coloring of ``g[active]`` with the vertices of ``first`` on side
    A and of ``second`` on side B, or None on an odd cycle or a clash.
    A component without demands puts its lowest-index vertex on side A.
    """
    side_a = side_b = 0
    for _, sides in component_sides(g, active):
        if sides is None:
            return None
        a, b = sides
        if first & b or second & a:
            a, b = b, a
            if first & b or second & a:
                return None
        side_a |= a
        side_b |= b
    return side_a, side_b


# -- split graphs ------------------------------------------------------------


def split_partition(
    g: Graph, active: Optional[int] = None
) -> Optional[Tuple[int, int]]:
    """Partition ``g[active]`` into (clique, independent set) masks, or None.

    ``active`` defaults to all of ``g``.  Uses the degree-sequence
    characterization of split graphs (Hammer and Simeone, Combinatorica
    1981) on degrees inside ``active``.  The clique side, the ``m`` top
    degrees, is maximum: an independent vertex complete to it would give
    ``m + 1`` degrees of at least ``m`` and so a larger ``m``.
    """
    if active is None:
        active = g.full_mask
    if not active:
        return (0, 0)
    ranked = sorted((-(g.adj[v] & active).bit_count(), v) for v in iter_bits(active))
    order = [v for _, v in ranked]
    deg = [-d for d, _ in ranked]
    m = max(i + 1 for i in range(len(order)) if deg[i] >= i)
    # the degree sums are 2e(K) + e(K, I) <= m(m - 1) + e(K, I) and
    # 2e(I) + e(K, I), so equality makes K a clique and I independent
    if sum(deg[:m]) != m * (m - 1) + sum(deg[m:]):
        return None
    clique = mask_of(order[:m])
    return clique, active & ~clique

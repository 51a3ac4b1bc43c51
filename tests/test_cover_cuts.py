"""Property test: the cuts the exact engine reads off the graph are, block
by block, the maximal cuts of the color classes by their definition."""

import pytest

pytest.importorskip(
    "hypothesis", reason="hypothesis is not installed; the cover cuts property test needs it"
)
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cdcolor.exact import cover_cuts  # noqa: E402
from cdcolor.graph import Graph  # noqa: E402

from _brute import brute_family_masks, cuts_of  # noqa: E402


@st.composite
def graphs(draw):
    """A graph on at most 9 vertices, each edge drawn on its own."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, [pair for pair in pairs if draw(st.booleans())])


# a hub joined to every vertex of two pendant triangles: each maximal class in
# N[hub] takes one vertex of each triangle or the hub alone
HUB_WITH_TRIANGLES = Graph.from_edges(
    7, [(0, v) for v in range(1, 7)] + [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
)


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(graphs())
@example(HUB_WITH_TRIANGLES)
def test_cover_cuts_are_the_maximal_cuts_of_the_classes(g):
    assert cover_cuts(g) == cuts_of(brute_family_masks(g), g.n), (g.n, g.adj)

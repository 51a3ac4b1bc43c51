"""Property tests: the exact engine's false-twin merge keeps the answer of
the partition-search oracle and, byte for byte, the table engine's own
answer on the unmerged component."""

import pytest

pytest.importorskip(
    "hypothesis", reason="hypothesis is not installed; the false-twin property tests need it"
)
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cdcolor import exact  # noqa: E402
from cdcolor.coloring import make_coloring, validate_cd_coloring  # noqa: E402
from cdcolor.exact import cd_chromatic_bruteforce, cd_chromatic_exact  # noqa: E402
from cdcolor.graph import Graph  # noqa: E402


@st.composite
def planted_twins(draw, max_n, connected):
    """A graph on at most ``max_n`` vertices: a base (spanning a random tree
    when ``connected``) plus copies of the open neighborhood of drawn
    vertices, planted twins included, with the vertex ids shuffled."""
    base = draw(st.integers(2, max_n - 1))
    pairs = [(u, v) for u in range(base) for v in range(u + 1, base)]
    edges = {pair for pair in pairs if draw(st.booleans())}
    if connected:
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, base)}
    adj = [0] * base
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for _ in range(draw(st.integers(1, max_n - base))):
        row = adj[draw(st.integers(0, len(adj) - 1))]
        new = 1 << len(adj)
        adj = [a | new if row >> u & 1 else a for u, a in enumerate(adj)] + [row]
    order = draw(st.permutations(range(len(adj))))
    return Graph.from_edges(
        len(adj), [(order[u], order[v]) for u, a in enumerate(adj) for v in range(u) if a >> v & 1]
    )


@settings(derandomize=True, max_examples=300, database=None, deadline=None)
@given(planted_twins(9, connected=False))
def test_merged_engine_matches_the_partition_oracle(g):
    q, coloring = cd_chromatic_exact(g)
    assert q == cd_chromatic_bruteforce(g)[0] == coloring.q, g.adj
    assert validate_cd_coloring(g, coloring).ok, g.adj


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(planted_twins(14, connected=True))
def test_merged_answer_equals_the_unmerged_table_answer(g):
    classes = exact._partition(g)  # the tables over all of g, no merge
    unmerged = make_coloring(classes, [exact._dominator_of(g, g.full_mask, c) for c in classes])
    assert cd_chromatic_exact(g) == (len(classes), unmerged), g.adj

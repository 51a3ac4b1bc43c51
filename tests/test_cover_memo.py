"""Property test: the deletion matchers' shared cover memo never answers
differently from a fresh vertex cover search."""

import pytest

pytest.importorskip(
    "hypothesis", reason="hypothesis is not installed; the cover memo property test needs it"
)
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cdcolor import partize  # noqa: E402
from cdcolor.fpt import vertex_cover  # noqa: E402
from cdcolor.graph import Graph  # noqa: E402


@st.composite
def queries(draw):
    """A graph, a few candidate sets, and budget questions about them in
    one order; the sets repeat, so later questions meet the memo."""
    n = draw(st.integers(1, 11))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pair for pair in pairs if draw(st.booleans())]
    sets = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    asked = draw(st.lists(st.tuples(st.sampled_from(sets), st.integers(-1, n)), max_size=24))
    return Graph.from_edges(n, edges), asked


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(queries())
def test_memo_answers_like_a_fresh_vertex_cover(case):
    g, asked = case
    memo = {}
    for cand, budget in asked:
        got = partize._cover_number(g, cand, budget, memo)
        fresh = vertex_cover(g, budget, cand)
        assert (got is None) == (fresh is None), (g.adj, cand, budget)
        assert got is None or got == fresh.bit_count()


@st.composite
def sides(draw):
    """A graph, sides 1-3 of a vertex labeling as pairwise disjoint
    candidate sets, and budgets asked in turn."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [pair for pair in pairs if draw(st.booleans())]
    labels = [draw(st.integers(0, 3)) for _ in range(n)]
    cands = [sum(1 << v for v in range(n) if labels[v] == side) for side in (1, 2, 3)]
    budgets = draw(st.lists(st.integers(-1, n), min_size=1, max_size=6))
    return Graph.from_edges(n, edges), cands, budgets


# the minimum cover of the second side found within budget 3 (vertices
# 1, 3, 4) differs from the one found within budget 4 (vertices 0, 1, 3)
SECOND_SIDE_BY_BUDGET = (
    Graph.from_edges(9, [(7, 8), (0, 1), (0, 3), (0, 4), (1, 5), (1, 6), (2, 3)]),
    [0b110000000, 0b001111111, 0],
    [4, 5, 3],
)


@settings(derandomize=True, max_examples=200, database=None, deadline=None)
@given(sides())
@example(SECOND_SIDE_BY_BUDGET)
def test_covers_builds_the_union_of_the_calls_in_turn(case):
    g, cands, budgets = case
    memo = {}
    for budget in budgets:
        want = 0
        for cand in cands:
            cover = vertex_cover(g, budget - want.bit_count(), cand)
            if cover is None:
                want = None
                break
            want |= cover
        assert partize._covers(g, budget, cands, memo) == want

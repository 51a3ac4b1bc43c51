"""Cross-validation of independent solver paths beyond the oracle range.

The subset-table engine, the total-domination route, and the split
clique route share no code on their hot paths, so agreement on graphs
with 10-16 vertices checks all of them at sizes the partition-search
oracle cannot reach.
"""

import random

from cdcolor.coloring import validate_cd_coloring
from cdcolor.exact import cd_chromatic_exact
from cdcolor.generate import random_girth5_graph, random_split_graph
from cdcolor.graph import split_partition
from cdcolor.split import cd_chromatic_split
from cdcolor.tds import cd_chromatic_girth5

from _shapes import complete_split_graph, is_connected, petersen_graph


def test_exact_agrees_with_girth5_route_midsize():
    rng = random.Random(211)
    checked = 0
    while checked < 25:
        g = random_girth5_graph(
            rng.randint(10, 16), rng, density=rng.choice([0.3, 0.7]), connected=True
        )
        if not is_connected(g):
            continue
        q_tds, wit = cd_chromatic_girth5(g)
        q_exact, _ = cd_chromatic_exact(g)
        assert q_tds == q_exact, g.adj
        assert validate_cd_coloring(g, wit).ok
        checked += 1


def test_exact_agrees_with_split_route_midsize():
    rng = random.Random(223)
    checked = 0
    while checked < 25:
        g = random_split_graph(rng.randint(10, 14), rng, p=rng.random(), connected=True)
        if not is_connected(g):
            continue
        q_split, wit = cd_chromatic_split(g)
        q_exact, _ = cd_chromatic_exact(g)
        assert q_split == q_exact, g.adj
        assert q_split == split_partition(g)[0].bit_count()
        assert validate_cd_coloring(g, wit).ok
        checked += 1


def test_all_routes_agree_on_petersen():
    g = petersen_graph()
    assert cd_chromatic_exact(g)[0] == 4
    assert cd_chromatic_girth5(g)[0] == 4


def test_exact_and_split_on_complete_split_family():
    for c in (2, 3, 4):
        for i in (1, 2, 3):
            g = complete_split_graph(c, i)
            assert cd_chromatic_exact(g)[0] == cd_chromatic_split(g)[0]

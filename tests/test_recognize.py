import random

from cdcolor.coloring import validate_cd_coloring
from cdcolor.exact import cd_chromatic_bruteforce, cd_chromatic_exact
from cdcolor.generate import disjoint_union, random_connected_graph, random_graph
from cdcolor.graph import Graph
from cdcolor.partize import _TYPE_SOLVERS, _type0, cd_recognize_upto3
from cdcolor.split import generate_from_partization

from _shapes import (
    complete_graph,
    cycle_graph,
    is_connected,
    net_graph,
    path_graph,
    star_graph,
)


def connected_corpus(count, n_lo, n_hi, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_connected_graph(
            rng.randint(n_lo, n_hi), rng.choice([0.2, 0.4, 0.6, 0.8]), rng
        )
        out.append(g)
    return out


def match(g, t):
    """Type ``t``'s witness on all of ``g``: the closed form for Type 0,
    the deletion matcher with budget k = 0 for Types 1-5."""
    if t == 0:
        return _type0(g, g.full_mask)
    sol = _TYPE_SOLVERS[t - 1](g, 0)
    return None if sol is None else sol.plan[0][1]


def test_type0():
    w = match(Graph(1, [0]), 0)
    assert w.type_id == 0 and w.coloring.q == 1
    assert match(complete_graph(3), 0).coloring.q == 3
    assert match(complete_graph(4), 0) is None
    # every connected graph on at most 3 vertices
    for g in (Graph(1, [0]), path_graph(2), path_graph(3), complete_graph(3)):
        w = match(g, 0)
        assert w.coloring.q <= 3
        report = validate_cd_coloring(g, w.coloring)
        assert report.ok, report.problem
    k3 = complete_graph(3)
    assert match(k3, 0).coloring == cd_chromatic_bruteforce(k3)[1]


def test_type1_c4():
    c4 = cycle_graph(4)
    w = match(c4, 1)
    assert w.dominators == (0, 1)
    assert validate_cd_coloring(c4, w.coloring).ok
    assert w.coloring.q == 2


def test_type1_requires_bipartite_and_dedge():
    assert match(cycle_graph(5), 1) is None
    assert match(cycle_graph(6), 1) is None


def test_type2_c5():
    w = match(cycle_graph(5), 2)
    assert w is not None and w.type_id == 2
    assert validate_cd_coloring(cycle_graph(5), w.coloring).ok


def test_type3_positive():
    # x=0 adjacent to y=1 and to an edge {2,3}; y dominates the lone 4
    g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 4)])
    w = match(g, 3)
    assert w is not None
    assert validate_cd_coloring(g, w.coloring).ok
    assert cd_chromatic_bruteforce(g)[0] == 3


def test_type4_net_graph():
    g = net_graph()
    w = match(g, 4)
    assert w is not None and len(w.dominators) == 3
    assert validate_cd_coloring(g, w.coloring).ok
    assert cd_chromatic_bruteforce(g)[0] == 3


def test_type5_path3():
    # x-z-y path: the pattern holds with two effective classes
    g = path_graph(3)
    w = match(g, 5)
    assert w is not None
    assert validate_cd_coloring(g, w.coloring).ok


def test_k4_matches_no_type():
    k4 = complete_graph(4)
    for t in range(6):
        assert match(k4, t) is None
    assert cd_recognize_upto3(k4) is None


def test_upto3_additivity():
    k1 = Graph(1, [0])
    assert cd_recognize_upto3(disjoint_union(k1, k1, k1)).coloring.q == 3
    assert cd_recognize_upto3(disjoint_union(cycle_graph(4), k1)).coloring.q == 3
    assert cd_recognize_upto3(disjoint_union(path_graph(2), path_graph(2))) is None
    assert cd_recognize_upto3(disjoint_union(k1, k1, k1, k1)) is None


def test_upto3_named():
    assert cd_recognize_upto3(cycle_graph(5)).coloring.q == 3
    assert cd_recognize_upto3(cycle_graph(6)) is None
    assert cd_recognize_upto3(star_graph(5)).coloring.q == 2
    assert cd_recognize_upto3(Graph(1, [0])).coloring.q == 1


def test_upto3_matches_oracle_connected():
    for g in connected_corpus(250, 1, 7, seed=101):
        rec = cd_recognize_upto3(g)
        q_true = cd_chromatic_bruteforce(g)[0]
        if q_true <= 3:
            assert rec is not None and rec.coloring.q == q_true, (g.adj, q_true)
            report = validate_cd_coloring(g, rec.coloring)
            assert report.ok, report.problem
        else:
            assert rec is None, (g.adj, q_true)


def test_upto3_matches_oracle_disconnected():
    rng = random.Random(103)
    for _ in range(60):
        g = random_graph(rng.randint(2, 7), rng.choice([0.2, 0.5]), rng)
        rec = cd_recognize_upto3(g)
        q_true = cd_chromatic_bruteforce(g)[0]
        if q_true <= 3:
            assert rec is not None and rec.coloring.q == q_true
        else:
            assert rec is None


def test_type1_equivalence_with_two_colorability():
    # connected, at least two vertices: 2-cd-colorable iff Type 1
    for g in connected_corpus(120, 2, 7, seed=107):
        assert is_connected(g)
        w = match(g, 1)
        q_true = cd_chromatic_bruteforce(g)[0]
        assert (w is not None) == (q_true <= 2)


def test_upto3_matches_exact_beyond_oracle_cap():
    # past the brute-force oracle's 9 vertices, against the exact engine
    rng = random.Random(109)
    graphs = []
    for i in range(20):
        # bipartite 8-vertex base (sides 0-3 and 4-7), every other one
        # with a triangle added; the lift has 15 vertices
        edges = [(u, v) for u in range(4) for v in range(4, 8) if rng.random() < 0.5]
        if i % 2:
            edges += [(0, 1), (0, 4), (1, 4)]
        base = Graph.from_edges(8, edges)
        graphs.append(generate_from_partization(base, 2, 2).graph)
    graphs += connected_corpus(30, 10, 14, seed=113)
    answers = set()
    for g in graphs:
        rec = cd_recognize_upto3(g)
        q_true = cd_chromatic_exact(g)[0]
        answers.add(q_true <= 3)
        if q_true <= 3:
            assert rec is not None and rec.coloring.q == q_true, (g.adj, q_true)
            report = validate_cd_coloring(g, rec.coloring)
            assert report.ok, report.problem
        else:
            assert rec is None, (g.adj, q_true)
    assert answers == {True, False}

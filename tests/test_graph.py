import random
import re
import tracemalloc

import pytest

from cdcolor.bits import bit_list, mask_of
from cdcolor.errors import ParseError
from cdcolor.exact import cd_chromatic_exact
from cdcolor.generate import disjoint_union, random_graph, random_split_graph
from cdcolor.graph import (
    MAX_VERTICES,
    Graph,
    bipartition_within,
    connected_components,
    detect_format,
    girth,
    iter_components,
    parse_graph,
    split_partition,
    to_dimacs,
)

from _brute import (
    brute_girth,
    brute_is_bipartite,
    brute_max_clique,
    brute_split_partition_exists,
    is_independent,
)
from _shapes import complete_graph, cycle_graph, path_graph, petersen_graph, star_graph


def test_parse_dimacs_triangle():
    g = parse_graph("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n", "dimacs")
    assert g.n == 3
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]
    assert g.labels == (1, 2, 3)


def test_parse_dimacs_isolated():
    g = parse_graph("p edge 2 0\n", "dimacs")
    assert g.n == 2 and g.m == 0


def test_parse_dimacs_collapses_duplicates():
    g = parse_graph("p edge 3 3\ne 1 2\ne 2 1\ne 1 2\n", "dimacs")
    assert g.m == 1


@pytest.mark.parametrize("m", [0, 2, 4])
def test_parse_dimacs_rejects_wrong_edge_count(m):
    text = f"c header on line 2\np edge 3 {m}\ne 1 2\ne 2 3\ne 1 2\n"
    with pytest.raises(ParseError) as err:
        parse_graph(text, "dimacs")
    assert err.value.line == 2
    assert f"m={m}" in str(err.value) and "3 edge lines" in str(err.value)


def test_parse_rejects_vertex_count_over_limit():
    assert parse_graph(f"p edge {MAX_VERTICES} 0\n", "dimacs").n == MAX_VERTICES
    with pytest.raises(ParseError) as err:
        parse_graph(f"p edge {MAX_VERTICES + 1} 0\n", "dimacs")
    assert err.value.line == 1 and "limit" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_graph(f"1 2\n2 {MAX_VERTICES + 1}\n", "edgelist")
    assert err.value.line == 2 and "limit" in str(err.value)


def test_parse_edgelist_cycle():
    g = parse_graph("1 2\n2 3\n3 4\n4 1\n", "edgelist")
    assert g.n == 4
    assert g.adj[0] == mask_of([1, 3])


@pytest.mark.parametrize(
    "text,fmt,lineno",
    [
        ("p edge x 3\n", "dimacs", 1),
        ("p edge 3 1\ne 1 5\n", "dimacs", 2),
        ("p edge 3 1\ne 2 2\n", "dimacs", 2),
        ("e 1 2\n", "dimacs", 1),
        ("1 1\n", "edgelist", 1),
        ("c comment\n1 2 3\n", "edgelist", 2),
        ("p edge 2 0\np edge 2 0\n", "dimacs", 2),
        ("p edge 3\n", "dimacs", 1),
        ("p edge -1 0\n", "dimacs", 1),
        ("p edge 2 1\ne 1\n", "dimacs", 2),
        ("p edge 2 1\nx 1 2\n", "dimacs", 2),
        ("c only a comment\n", "dimacs", None),
        ("1 x\n", "edgelist", 1),
        ("0 1\n", "edgelist", 1),
        ("c only a comment\n", "edgelist", None),
    ],
)
def test_parse_errors_carry_line_numbers(text, fmt, lineno):
    with pytest.raises(ParseError) as err:
        parse_graph(text, fmt)
    assert err.value.line == lineno


@pytest.mark.parametrize(
    "fmt,reason", [("dimacs", "missing problem line"), ("edgelist", "no edges found")]
)
def test_parse_names_what_a_comment_only_file_lacks(fmt, reason):
    with pytest.raises(ParseError, match=f"^{reason}$"):
        parse_graph("c only a comment\n\n", fmt)


def test_detect_format():
    assert detect_format("c hi\np edge 2 1\ne 1 2\n") == "dimacs"
    assert detect_format("1 2\n") == "edgelist"
    assert detect_format("") == "dimacs"


def test_parse_accepts_bytes():
    g = parse_graph(b"p edge 2 1\ne 1 2\n", "dimacs")
    assert g.m == 1
    assert parse_graph(b"1 2\n", "edgelist") == g


def test_dimacs_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        labeled = Graph(g.n, g.adj, labels=tuple(range(1, g.n + 1)))
        again = parse_graph(to_dimacs(labeled), "dimacs")
        assert again == labeled and hash(again) == hash(labeled)
        assert to_dimacs(again) == to_dimacs(labeled)


def test_constructor_rejects_bad_graphs():
    with pytest.raises(ValueError):
        Graph(2, [1, 1])  # vertex 0 adjacent to itself
    with pytest.raises(ValueError):
        Graph(2, [2, 0])  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])


@pytest.mark.parametrize("row", [0b100, 1 << 70, -1, -4])
def test_constructor_rejects_rows_out_of_range(row):
    with pytest.raises(ValueError, match="row 0 references vertices >= 2"):
        Graph(2, [row, 0])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Graph(-1, []), ValueError, "vertex count must be non-negative"),
        (lambda: Graph(2, [0]), ValueError, "adjacency list length must equal vertex count"),
        (lambda: Graph(2, [0, 0], ["a"]), ValueError, "labels length must equal vertex count"),
        (lambda: Graph(2, [0, 0], ["a", "a"]), ValueError, "labels must be unique"),
        (lambda: Graph.from_edges(2, [(1, 1)]), ValueError, "self-loop at vertex 1"),
        (lambda: parse_graph("p edge 2 1\ne 1 x\n", "dimacs"), ParseError, "malformed edge"),
        (lambda: parse_graph("p edge 2 0\n", "xml"), ValueError, "unknown format 'xml'"),
    ],
)
def test_input_checks(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_components():
    assert connected_components(complete_graph(3)) == [0b111]
    assert connected_components(Graph(2, [0, 0])) == [1, 2]
    two = disjoint_union(cycle_graph(4), Graph(1, [0]))
    comps = connected_components(two)
    assert sorted(c.bit_count() for c in comps) == [1, 4]


def test_components_within_matches_search():
    rng = random.Random(61)
    for _ in range(200):
        g = random_graph(rng.randint(0, 14), rng.choice([0.05, 0.15, 0.4]), rng)
        active = rng.getrandbits(g.n)
        want, seen = [], 0
        for v in bit_list(active):
            if (seen >> v) & 1:
                continue
            comp, stack = 1 << v, [v]
            while stack:
                for w in bit_list(g.adj[stack.pop()] & active & ~comp):
                    comp |= 1 << w
                    stack.append(w)
            want.append(comp)
            seen |= comp
        assert list(iter_components(g, active)) == want


def test_many_singleton_components_are_walked_one_at_a_time():
    g = parse_graph("1 2\n2 65536\n", "edgelist")
    tracemalloc.start()
    try:
        q, coloring = cd_chromatic_exact(g)
        sides = bipartition_within(g, g.full_mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q == coloring.q == 65535
    assert sorted(coloring.classes[0] + coloring.classes[1]) == [0, 1, 65535]
    assert sides == (g.full_mask & ~0b10, 0b10)
    assert peak < 32 << 20


def test_girth_named():
    assert girth(cycle_graph(5)) == 5
    assert girth(path_graph(4)) == float("inf")
    assert girth(petersen_graph()) == 5
    assert girth(complete_graph(4)) == 3
    for n in range(3, 10):
        assert girth(cycle_graph(n)) == n
    k33 = Graph.from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    assert girth(k33) == 4
    # Heawood graph: a 14-cycle plus chords i -- i + 5 from every even i
    heawood = Graph.from_edges(
        14, [(i, (i + 1) % 14) for i in range(14)] + [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    )
    assert girth(heawood) == 6


def relabeled(g, rng):
    perm = rng.sample(range(g.n), g.n)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def sparse_graph(rng):
    """A random cycle of length 3-9 plus a few chords or pendant edges, or a
    random forest; vertices renamed at random."""
    n = rng.randint(3, 9)
    if rng.random() < 0.2:
        edges = [(v, rng.randrange(v)) for v in range(1, n) if rng.random() < 0.8]
    else:
        length = rng.randint(3, n)
        edges = [(i, (i + 1) % length) for i in range(length)]
        edges += [(v, rng.randrange(v)) for v in range(length, n)]
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 1))]
    return relabeled(Graph.from_edges(n, edges), rng)


def test_girth_matches_bruteforce():
    rng = random.Random(11)
    for _ in range(120):
        g = random_graph(rng.randint(3, 8), rng.choice([0.2, 0.4, 0.6]), rng)
        assert girth(g) == brute_girth(g)
    seen = set()
    for _ in range(400):
        g = sparse_graph(rng)
        seen.add(girth(g))
        assert girth(g) == brute_girth(g), g.adj
    assert seen == {3, 4, 5, 6, 7, 8, 9, float("inf")}
    # vertex 0 lies on a longer cycle than the shortest one
    for _ in range(40):
        a = rng.randint(4, 7)
        b = rng.randint(3, a - 1)
        other = disjoint_union(cycle_graph(b), path_graph(rng.randint(1, 3)))
        g = disjoint_union(cycle_graph(a), relabeled(other, rng))
        assert girth(g) == brute_girth(g) == b


def test_girth_with_a_limit_is_the_girth_cut_at_it():
    rng = random.Random(13)
    for _ in range(300):
        if rng.random() < 0.5:
            g = sparse_graph(rng)
        else:
            g = random_graph(rng.randint(1, 12), rng.choice([0.1, 0.2, 0.4, 0.6]), rng)
        forest = relabeled(Graph.from_edges(g.n, [(v, rng.randrange(v)) for v in range(1, g.n)]), rng)
        for h in (g, forest):
            for limit in (3, 4, 5, 6):
                assert girth(h, limit) == min(girth(h), limit), (h.adj, limit)
    assert girth(path_graph(20000), 5) == 5


def test_bipartition_named():
    c4, c5, empty3 = cycle_graph(4), cycle_graph(5), Graph(3, [0, 0, 0])
    a, b = bipartition_within(c4, c4.full_mask)
    assert (a, b) == (0b0101, 0b1010)
    assert bipartition_within(c5, c5.full_mask) is None
    assert bipartition_within(empty3, empty3.full_mask) == (0b111, 0)


def test_bipartition_matches_bruteforce():
    rng = random.Random(13)
    for _ in range(120):
        g = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.5]), rng)
        sides = bipartition_within(g, g.full_mask)
        assert (sides is not None) == brute_is_bipartite(g)
        if sides is not None:
            a, b = sides
            assert a | b == g.full_mask and not a & b
            assert is_independent(g, a) and is_independent(g, b)


def test_split_partition_named():
    clique, indep = split_partition(star_graph(3))
    assert clique.bit_count() == 2 and (clique & 1)
    assert split_partition(cycle_graph(4)) is None
    clique, indep = split_partition(complete_graph(4))
    assert clique == 0b1111 and indep == 0


def test_split_partition_matches_bruteforce():
    rng = random.Random(17)
    graphs = [
        random_graph(rng.randint(1, 7), rng.choice([0.3, 0.6, 0.9]), rng)
        for _ in range(150)
    ]
    # shuffled split graphs: the clique side is the top of the degree
    # order, with no independent vertex complete to it
    graphs += [
        relabeled(random_split_graph(rng.randint(1, 7), rng, p=p), rng)
        for p in (0.6, 1.0)
        for _ in range(75)
    ]
    for g in graphs:
        parts = split_partition(g)
        assert (parts is not None) == brute_split_partition_exists(g)
        if parts is not None:
            clique, indep = parts
            assert clique | indep == g.full_mask and not clique & indep
            for u in bit_list(clique):
                assert g.adj[u] & clique == clique & ~(1 << u)
            assert is_independent(g, indep)
            # the clique side is a maximum clique
            assert clique.bit_count() == brute_max_clique(g)


def test_induced_subgraph():
    g = cycle_graph(5)
    sub, ids = g.induced(0b01011)
    assert ids == [0, 1, 3]
    assert sub.edges() == [(0, 1)]

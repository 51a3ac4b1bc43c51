import random

import pytest

from cdcolor.bits import bit_list, mask_of
from cdcolor.errors import PreconditionError
from cdcolor.fpt import (
    _min_vertex_cut,
    _split_network,
    odd_cycle_transversal,
    vertex_cover,
)
from cdcolor.generate import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
)
from cdcolor.graph import Graph, bipartition_within

from _brute import (
    brute_forced_sides,
    brute_min_separators,
    brute_oct_min,
    brute_vertex_cover_min,
    forced_sides_via_terminals,
)


def is_vertex_cover(g, mask):
    return all((mask >> u) & 1 or (mask >> v) & 1 for u, v in g.edges())


def is_oct(g, mask):
    return bipartition_within(g, g.full_mask & ~mask) is not None


def test_vertex_cover_examples():
    assert vertex_cover(Graph(3, [0, 0, 0]), 0) == 0
    assert vertex_cover(complete_graph(3), 1) is None
    vc = vertex_cover(complete_graph(3), 2)
    assert vc.bit_count() == 2
    vc = vertex_cover(cycle_graph(4), 2)
    assert vc.bit_count() == 2 and is_vertex_cover(cycle_graph(4), vc)


def test_vertex_cover_matches_bruteforce():
    rng = random.Random(113)
    for _ in range(150):
        g = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]), rng)
        for k in (0, 1, 2, 3, 4):
            got = vertex_cover(g, k)
            want = brute_vertex_cover_min(g, k)
            assert (got is None) == (want is None), (g.adj, k)
            if got is not None:
                assert got.bit_count() == want.bit_count()
                assert is_vertex_cover(g, got)


def test_oct_examples():
    assert odd_cycle_transversal(cycle_graph(4), 3) == 0
    got = odd_cycle_transversal(cycle_graph(5), 1)
    assert got.bit_count() == 1 and is_oct(cycle_graph(5), got)
    assert odd_cycle_transversal(complete_graph(4), 1) is None
    got = odd_cycle_transversal(complete_graph(4), 2)
    assert got.bit_count() == 2


def test_oct_matches_bruteforce():
    rng = random.Random(127)
    for _ in range(120):
        g = random_graph(rng.randint(1, 8), rng.choice([0.3, 0.5, 0.8]), rng)
        for k in (0, 1, 2, 3):
            got = odd_cycle_transversal(g, k)
            want = brute_oct_min(g, k)
            assert (got is None) == (want is None), (g.adj, k)
            if got is not None:
                assert is_oct(g, got)
                assert got.bit_count() <= k


def test_oct_is_minimal():
    rng = random.Random(131)
    for _ in range(60):
        g = random_graph(rng.randint(3, 8), 0.6, rng)
        got = odd_cycle_transversal(g, 4)
        if got is None:
            continue
        for v in bit_list(got):
            assert not is_oct(g, got & ~(1 << v))


def test_min_vertex_cut_matches_bruteforce():
    """One network answers every query with the minimum separator
    closest to the sources: what the sources still reach is contained in
    what they reach past any other minimum separator."""
    rng = random.Random(151)

    def some(active):
        vs = bit_list(active)
        return mask_of(rng.sample(vs, min(len(vs), rng.choice((0, 1, 2, 2, 3, 3)))))

    closest_mattered = 0
    for _ in range(300):
        g = random_graph(rng.randint(1, 10), rng.choice([0.4, 0.6, 0.8]), rng)
        active = rng.getrandbits(g.n) | rng.getrandbits(g.n)
        fixed = rng.getrandbits(g.n) & rng.getrandbits(g.n)
        net = _split_network(g, active, fixed)
        for _ in range(3):
            sources, sinks = some(active), some(active)
            seps = dict(brute_min_separators(g, active, sources, sinks, fixed))
            size = min((cut.bit_count() for cut in seps), default=None)
            closest_mattered += len(set(seps.values())) > 1
            for budget in range(-1, 5):
                cut = _min_vertex_cut(net, sources, sinks, budget)
                if size is None or size > budget:
                    assert cut is None, (g.adj, active, fixed, sources, sinks)
                    continue
                assert cut in seps, (g.adj, active, fixed, sources, sinks)
                assert all(not seps[cut] & ~reach for reach in seps.values())
    assert closest_mattered > 40


def test_oct_excluding_examples():
    got = odd_cycle_transversal(complete_graph(3), 1, None, 1 << 0)
    assert got.bit_count() == 1 and not got & 1
    got = odd_cycle_transversal(cycle_graph(5), 1, None, 1 << 2)
    assert got.bit_count() == 1 and not (got >> 2) & 1
    assert odd_cycle_transversal(cycle_graph(4), 0, None, 1 << 0) == 0


def test_oct_excluding_matches_bruteforce():
    rng = random.Random(139)
    for _ in range(60):
        g = random_graph(rng.randint(2, 7), rng.choice([0.4, 0.7]), rng)
        v = rng.randrange(g.n)
        for k in (0, 1, 2, 3):
            got = odd_cycle_transversal(g, k, None, 1 << v)
            want = brute_oct_min(g, k, avoid=v)
            assert (got is None) == (want is None)
            if got is not None:
                assert not (got >> v) & 1
                assert is_oct(g, got)
                assert got.bit_count() <= k


def test_forced_sides_trivial_cases():
    p2 = path_graph(2)
    assert odd_cycle_transversal(p2, 0, first=0b01, second=0b10) == 0
    assert bipartition_within(p2, p2.full_mask, 0b01, 0b10) == (0b01, 0b10)
    c4 = cycle_graph(4)
    assert odd_cycle_transversal(c4, 0, first=0b0001, second=0b0010) == 0
    p_side, q_side = bipartition_within(c4, c4.full_mask, 0b0001, 0b0010)
    assert p_side == 0b0101 and q_side == 0b1010
    with pytest.raises(PreconditionError):
        odd_cycle_transversal(c4, 1, first=0b0001, second=0b0001)
    with pytest.raises(PreconditionError):
        odd_cycle_transversal(c4, 1, None, 1 << 4, 0b0001, 0b0010)
    with pytest.raises(PreconditionError):
        odd_cycle_transversal(c4, 1, None, 1 << 4)
    # demand bits past the graph: n, n + 1 and beyond are named, not dropped
    for p, q, v in ((1 << 4, 0b0010, 4), (0b0001, 1 << 5, 5), (1 << 9 | 1 << 7, 0, 7)):
        with pytest.raises(PreconditionError, match=f"vertex {v} "):
            odd_cycle_transversal(c4, 1, first=p, second=q)


def test_forced_sides_c5():
    oct_mask = odd_cycle_transversal(cycle_graph(5), 1, first=0b00001, second=0b00010)
    assert oct_mask is not None
    assert oct_mask.bit_count() <= 1
    g = cycle_graph(5)
    check = bipartition_within(g, g.full_mask & ~oct_mask, 0b00001, 0b00010)
    assert check is not None


def test_forced_sides_matches_bruteforce():
    rng = random.Random(149)
    for _ in range(60):
        g = random_graph(rng.randint(2, 7), rng.choice([0.4, 0.6]), rng)
        vs = list(range(g.n))
        p = mask_of(rng.sample(vs, rng.randint(0, 2)))
        q_pool = [v for v in vs if not (p >> v) & 1]
        q = mask_of(rng.sample(q_pool, min(len(q_pool), rng.randint(0, 2))))
        exclude = rng.choice([None] + vs)
        undeletable = 0 if exclude is None else 1 << exclude
        for k in (0, 1, 2):
            oct_mask = odd_cycle_transversal(g, k, None, undeletable, p, q)
            want = brute_forced_sides(g, p, q, exclude, k)
            assert (oct_mask is None) == (want is None), (g.adj, p, q, exclude, k)
            if oct_mask is not None:
                assert oct_mask.bit_count() <= k
                if exclude is not None:
                    assert not (oct_mask >> exclude) & 1
                sides = bipartition_within(g, g.full_mask & ~oct_mask, p, q)
                assert sides is not None
                sp, sq = sides
                assert sp | sq == g.full_mask & ~oct_mask
                assert not sp & sq


def test_forced_sides_match_the_terminal_graph_past_the_oracle():
    # n = 8-14 lies past the exhaustive oracle; the reference asks the plain
    # transversal on the graph plus two terminals that pin the demands
    rng = random.Random(367)
    yes = no = 0
    for _ in range(1000):
        n = rng.randint(8, 14)
        g = random_graph(n, rng.choice([0.2, 0.3, 0.5]), rng)
        active = rng.getrandbits(n) | rng.getrandbits(n) | rng.getrandbits(n)
        p = rng.getrandbits(n) & rng.getrandbits(n)
        q = rng.getrandbits(n) & rng.getrandbits(n) & ~p
        exclude = rng.choice([None, *bit_list(active)])
        undeletable = 0 if exclude is None else 1 << exclude
        k = rng.randint(0, 3)
        oct_mask = odd_cycle_transversal(g, k, active, undeletable, p, q)
        want = forced_sides_via_terminals(g, p, q, exclude, k, active)
        assert (oct_mask is None) == (want is None), (g.adj, p, q, exclude, k, active)
        if oct_mask is None:
            no += 1
            continue
        yes += 1
        assert oct_mask.bit_count() <= k and not oct_mask & ~active
        assert exclude is None or not (oct_mask >> exclude) & 1
        assert bipartition_within(g, active & ~oct_mask, p, q) is not None
        for v in bit_list(oct_mask):  # no vertex can go back
            assert bipartition_within(g, active & ~oct_mask | 1 << v, p, q) is None
    assert yes >= 400 and no >= 400, (yes, no)


def test_forced_sides_exclude_inside_p():
    # pinning the excluded vertex itself: survivors still orient around it
    g = cycle_graph(5)
    oct_mask = odd_cycle_transversal(g, 1, None, 1 << 0, 0b00001, 0b00010)
    assert oct_mask is not None
    sp, sq = bipartition_within(g, g.full_mask & ~oct_mask, 0b00001, 0b00010)
    assert not oct_mask & 1
    assert (sp >> 0) & 1  # the pinned excluded vertex survives on the p side
    assert not (sq & 0b00001) and not (sp & 0b00010 & ~oct_mask)
    # vertex 1 is both excluded and demanded on the q side; ignoring that
    # demand admits a transversal at k = 1, but none meets it below k = 2
    g = Graph(5, (8, 20, 26, 21, 14))
    p, q = 0b01100, 0b00011
    for k in (0, 1):
        assert odd_cycle_transversal(g, k, None, 1 << 1, p, q) is None
        assert brute_forced_sides(g, p, q, 1, k) is None
    oct_mask = odd_cycle_transversal(g, 2, None, 1 << 1, p, q)
    assert oct_mask is not None and brute_forced_sides(g, p, q, 1, 2) is not None
    assert oct_mask.bit_count() <= 2 and not (oct_mask >> 1) & 1
    assert bipartition_within(g, g.full_mask & ~oct_mask, p, q) is not None


def test_bipartition_within_demands_clash_inside_a_component():
    # the path 0-1-2 puts 0 and 2 on one side: demanding them apart fails
    g = path_graph(3)
    assert bipartition_within(g, g.full_mask, 0b001, 0b100) is None
    assert bipartition_within(g, g.full_mask, 0b101, 0b010) == (0b101, 0b010)
    assert bipartition_within(g, g.full_mask, 0b010, 0b001) == (0b010, 0b101)


def test_bipartition_within_keeps_a_demand_free_component_on_the_first_side():
    # two paths 0-1-2 and 3-4: demands flip the first, the second keeps
    # its lowest vertex 3 on the first side
    g = Graph(5, (0b00010, 0b00101, 0b00010, 0b10000, 0b01000))
    assert bipartition_within(g, g.full_mask, 0b00010, 0) == (0b01010, 0b10101)
    assert bipartition_within(g, g.full_mask) == (0b01101, 0b10010)

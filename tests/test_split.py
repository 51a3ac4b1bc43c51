import hashlib
import random

import pytest

from cdcolor.coloring import validate_cd_coloring
from cdcolor.errors import NotSplitError, PreconditionError
from cdcolor.exact import cd_chromatic_bruteforce
from cdcolor.generate import (
    complete_graph,
    complete_split_graph,
    cycle_graph,
    disjoint_union,
    random_split_graph,
    star_graph,
)
from cdcolor.graph import MAX_VERTICES, Graph, is_connected, split_partition, to_dimacs
from cdcolor.partize import (
    partization2,
    partization3,
    validate_deletion,
)
from cdcolor.split import (
    cd_chromatic_split,
    generate_from_partization,
    generate_from_setcover,
    split_partization,
)

from _brute import brute_oct_min, brute_vertex_cover_min, partization_bruteforce


def test_split_coloring_named():
    q, col = cd_chromatic_split(complete_graph(4))
    assert q == 4 and validate_cd_coloring(complete_graph(4), col).ok
    q, col = cd_chromatic_split(star_graph(3))
    assert q == 2 and validate_cd_coloring(star_graph(3), col).ok
    # joining K3 completely to two independent vertices creates a K4
    g = complete_split_graph(3, 2)
    q, col = cd_chromatic_split(g)
    assert q == cd_chromatic_bruteforce(g)[0] == 4


def test_split_coloring_shared_class_needs_shared_dominator():
    # two independent vertices whose neighborhoods are disjoint used to
    # collide in the lowest-indexed class; the cyclic rule keeps them apart
    g = Graph.from_edges(
        6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 3), (5, 2)]
    )
    q, col = cd_chromatic_split(g)
    assert q == 4
    assert validate_cd_coloring(g, col).ok


def test_split_coloring_preconditions():
    with pytest.raises(NotSplitError):
        cd_chromatic_split(cycle_graph(4))


def path2():
    return Graph.from_edges(2, [(0, 1)])


def test_split_chromatic_components():
    g = disjoint_union(path2(), Graph(1, [0]))
    q, col = cd_chromatic_split(g)
    assert q == 3
    assert validate_cd_coloring(g, col).ok


# SHA-256 of to_dimacs(random_split_graph(n, Random(seed), p, connected)),
# keyed by (n, p, connected, seed): the generator's draws stay fixed.
SPLIT_GRAPH_DIGESTS = {
    (1, 0.5, False, 1): "8d8fcdfafbd591f3b2b1a1ad6b6570c756c07b7a276fc8b08032bdc8152048e0",
    (7, 0.5, False, 2): "d217999b620a330d2c10116edef62b1de12f54a43fd1358757377157e8f18a07",
    (12, 0.3, True, 3): "3860e3d958002aaf60a5803fe1dc157e5a44ab80914a870a9a9140fc9420557c",
    (16, 0.8, False, 4): "d10396108d4dcab0cb61413cf85607ae0a00fb15cc1a0aeb571a2aba9669c5cd",
    (16, 0.5, True, 5): "42f48f9eb52348da83872be2f4a4b544ab88dfcb2864c493e73b670c7c003742",
}


@pytest.mark.parametrize("n, p, connected, seed", sorted(SPLIT_GRAPH_DIGESTS))
def test_random_split_graph_is_pinned(n, p, connected, seed):
    g = random_split_graph(n, random.Random(seed), p=p, connected=connected)
    digest = hashlib.sha256(to_dimacs(g).encode()).hexdigest()
    assert digest == SPLIT_GRAPH_DIGESTS[n, p, connected, seed]


def test_random_split_graph_empty_draws_nothing():
    rng = random.Random(7)
    state = rng.getstate()
    assert random_split_graph(0, rng) == Graph(0, [])
    assert rng.getstate() == state


def test_omega_equals_chi_on_split_corpus():
    rng = random.Random(173)
    count = 0
    while count < 80:
        g = random_split_graph(rng.randint(1, 9), rng, p=rng.random(), connected=True)
        if not is_connected(g):
            continue
        count += 1
        clique, _ = split_partition(g)
        q, col = cd_chromatic_split(g)
        assert q == clique.bit_count()
        assert q == cd_chromatic_bruteforce(g)[0]
        assert validate_cd_coloring(g, col).ok


def test_split_partization_named():
    assert split_partization(complete_graph(4), 1, 3) is not None
    assert split_partization(complete_graph(4), 1, 3).size == 1
    assert split_partization(complete_graph(4), 0, 3) is None
    assert split_partization(star_graph(3), 0, 2).deleted == 0
    with pytest.raises(NotSplitError):
        split_partization(cycle_graph(4), 1, 2)


def test_split_partization_refuses_negative_parameters():
    assert split_partization(complete_graph(4), -1, 2) is None
    assert split_partization(complete_graph(4), 1, -1) is None


def test_generators_refuse_more_than_max_vertices():
    # the counts the messages name are the vertex counts of the instances
    sets = [{1, 2}, {2, 3}, {3}]
    assert generate_from_setcover(3, sets, 1).graph.n == 2 * len(sets) + 3 + 3
    assert generate_from_partization(cycle_graph(5), 4, 2).graph.n == 5 + 4 + 2 + 3
    with pytest.raises(PreconditionError, match=f"vertex count {MAX_VERTICES + 1} exceeds"):
        generate_from_setcover(MAX_VERTICES - 4, [{1}], 1)
    with pytest.raises(PreconditionError, match=f"vertex count {MAX_VERTICES + 1} exceeds"):
        generate_from_partization(cycle_graph(5), MAX_VERTICES - 8, 1)
    with pytest.raises(PreconditionError, match=f"the limit of {MAX_VERTICES}$"):
        generate_from_partization(cycle_graph(5), 10**8, 2)


def test_split_partization_counts_stranded_singletons():
    # deleting the star center strands the leaves, which all cost a color
    assert split_partization(star_graph(3), 1, 1) is None
    assert split_partization(star_graph(3), 2, 1) is None
    assert split_partization(star_graph(3), 3, 1) is not None


def test_split_partization_matches_oracle():
    rng = random.Random(179)
    for _ in range(60):
        g = random_split_graph(rng.randint(1, 8), rng, p=rng.random())
        for k in (0, 1, 2, 3):
            for q in (1, 2, 3):
                got = split_partization(g, k, q)
                want = partization_bruteforce(g, k, q)
                assert (got is None) == (want is None), (g.adj, k, q)
                if got is not None:
                    assert got.size <= k
                    sub, _ = g.without(got.deleted)
                    assert cd_chromatic_split(sub)[0] <= q
                    assert validate_deletion(g, got, q).ok


def test_setcover_generator_examples():
    inst = generate_from_setcover(2, [{1}, {2}, {1, 2}], 1)
    assert (inst.k, inst.q) == (2, 2)
    assert inst.expected is True
    inst = generate_from_setcover(1, [{1}], 1)
    assert inst.expected is True
    inst = generate_from_setcover(2, [{1}], 1)
    assert inst.expected is False
    with pytest.raises(PreconditionError):
        generate_from_setcover(2, [set()], 0)
    with pytest.raises(PreconditionError):
        generate_from_setcover(2, [{1}], 5)


def test_setcover_generator_rejects_negative_k():
    with pytest.raises(PreconditionError, match="k must lie between 0"):
        generate_from_setcover(3, [{1, 2}, {2, 3}], -1)


def test_setcover_instances_are_split_and_match_solvers():
    rng = random.Random(181)
    for _ in range(25):
        universe = rng.randint(1, 4)
        m = rng.randint(1, 4)
        sets = []
        while len(sets) < m:
            s = {x for x in range(1, universe + 1) if rng.random() < 0.6}
            if s:
                sets.append(s)
        k = rng.randint(0, m)
        inst = generate_from_setcover(universe, sets, k)
        assert split_partition(inst.graph) is not None
        got = split_partization(inst.graph, inst.k, inst.q)
        assert (got is not None) == inst.expected, (universe, sets, k)
        # the generic FPT solvers agree whenever q lands in their range
        if inst.q == 2:
            assert (partization2(inst.graph, inst.k) is not None) == inst.expected
        if inst.q == 3:
            assert (partization3(inst.graph, inst.k) is not None) == inst.expected


def test_setcover_tiny_instances_match_bruteforce():
    # small enough for the exhaustive deletion oracle
    for sets, k in [([{1}], 1), ([{1}], 0), ([{1, 2}], 1), ([{1}, {2}], 1)]:
        universe = max(max(s) for s in sets)
        inst = generate_from_setcover(universe, sets, k)
        if inst.graph.n <= 9:
            got = partization_bruteforce(inst.graph, inst.k, inst.q)
            assert (got is not None) == inst.expected


def test_lift_generator_examples():
    inst = generate_from_partization(complete_graph(3), 2, 1)
    assert inst.q == 2 and inst.expected is True  # K3 has a 2-vertex cover
    inst = generate_from_partization(cycle_graph(5), 1, 2)
    assert inst.q == 3 and inst.expected is True  # one vertex kills the odd cycle
    inst = generate_from_partization(Graph(1, [0]), 0, 1)
    assert inst.expected is True
    with pytest.raises(PreconditionError):
        generate_from_partization(complete_graph(3), 1, 3)


def test_lift_generator_rejects_negative_k():
    for q_base in (1, 2):
        with pytest.raises(PreconditionError, match="k must be non-negative"):
            generate_from_partization(cycle_graph(5), -2, q_base)


def test_lift_instances_match_fpt_solvers():
    rng = random.Random(191)
    for _ in range(20):
        from cdcolor.generate import random_graph

        g = random_graph(rng.randint(1, 7), rng.choice([0.3, 0.6]), rng)
        k = rng.randint(0, 2)
        q_base = rng.choice([1, 2])
        inst = generate_from_partization(g, k, q_base)
        oracle = (
            brute_vertex_cover_min(g, k) if q_base == 1 else brute_oct_min(g, k)
        )
        assert inst.expected == (oracle is not None)
        solver = partization2 if q_base == 1 else partization3
        assert (solver(inst.graph, inst.k) is not None) == inst.expected, (
            g.adj,
            k,
            q_base,
        )

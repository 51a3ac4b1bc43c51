import hashlib
import random
import warnings

import pytest

from cdcolor import exact, partize
from cdcolor.bits import mask_of
from cdcolor.coloring import CdColoring
from cdcolor.errors import CapacityError
from cdcolor.fpt import odd_cycle_transversal
from cdcolor.generate import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    net_graph,
    path_graph,
    random_graph,
    star_graph,
)
from cdcolor.graph import Graph, parse_graph
from cdcolor.partize import (
    DeletionSolution,
    delete_to_type1,
    delete_to_type2,
    delete_to_type3,
    delete_to_type4,
    delete_to_type5,
    partization,
    partization2,
    partization3,
    validate_deletion,
)
from cdcolor.split import generate_from_partization

from _brute import PARTIZATION_BRUTE_N_CAP, partization_bruteforce, type2_by_type1


def check_yes(g, sol, k, q):
    assert sol is not None
    assert sol.size <= k
    report = validate_deletion(g, sol, q)
    assert report.ok, report.problem


def test_type1_c4_stays():
    sol = delete_to_type1(cycle_graph(4), 0)
    assert sol.deleted == 0
    check_yes(cycle_graph(4), sol, 0, 3)


def test_type1_c6_budget2():
    g = cycle_graph(6)
    assert delete_to_type1(g, 1) is None  # oracle: q=2 needs 2 deletions
    sol = delete_to_type1(g, 2)
    check_yes(g, sol, 2, 2)
    assert partization_bruteforce(g, 2, 2) is not None
    assert partization_bruteforce(g, 1, 2) is None


def test_type1_k1_has_no_edge():
    assert delete_to_type1(Graph(1, [0]), 0) is None


def test_type2_c5():
    sol = delete_to_type2(cycle_graph(5), 0)
    assert sol is not None and sol.deleted == 0
    check_yes(cycle_graph(5), sol, 0, 3)


def test_type2_k4_needs_budget():
    g = complete_graph(4)
    assert delete_to_type2(g, 0) is None
    sol = delete_to_type2(g, 1)
    check_yes(g, sol, 1, 3)


def test_type2_k2_none_but_type1_covers():
    # K2 minus any vertex has no dominating edge
    assert delete_to_type2(path_graph(2), 0) is None
    assert delete_to_type1(path_graph(2), 0) is not None


def test_type2_covers_isolated_plus_type1():
    # lone vertex beside a 4-cycle: deleting its neighbors isolates it
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
    sol = delete_to_type2(g, 1)
    assert sol is not None
    check_yes(g, sol, 1, 3)
    names = [name for name, _ in sol.plan]
    assert names in (["Type2"], ["IsolatedVertex", "Type1"])


def test_type3_never_fires_on_triangle_free():
    # the bipartite part lives inside N(x) with an edge, forcing a triangle
    for k in (0, 1, 2):
        assert delete_to_type3(cycle_graph(5), k) is None
    # C5 still succeeds with zero deletions through the Type 2 pass
    assert delete_to_type2(cycle_graph(5), 0) is not None


def test_type3_positive_with_deletion():
    # Type 3 core (dominating pair 0-1, triangle edge {2,3}, leaf 4)
    # plus a far vertex 5 that must be deleted
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (2, 3), (1, 4), (4, 5)])
    assert delete_to_type3(g, 0) is None
    sol = delete_to_type3(g, 1)
    assert sol is not None and sol.deleted == 1 << 5
    check_yes(g, sol, 1, 3)


def test_type3_k2_rejected_for_missing_edge():
    assert delete_to_type3(path_graph(2), 0) is None


def test_type3_skips_oct_excluding_when_no_transversal_fits(monkeypatch):
    """On the lift of K7 at k = 2 every candidate bipartite part that
    passes the vertex cover step holds a K7, which has no odd cycle
    transversal of size 2, so no y-avoiding one is ever asked for."""
    calls = []
    solve = partize.odd_cycle_transversal

    def counted(g, k, active=None, undeletable=0, *demands):
        if undeletable:
            calls.append((k, active, undeletable))
        return solve(g, k, active, undeletable, *demands)

    monkeypatch.setattr(partize, "odd_cycle_transversal", counted)
    inst = generate_from_partization(complete_graph(7), 2, 2)
    assert inst.expected is False
    assert partization3(inst.graph, 2) is None
    assert calls == []


# Type 3 at (x, y) = (2, 4) deletes 5, a vertex of N(2), by the
# y-avoiding transversal of the bipartite part
TYPE3_TRANSVERSAL = [
    (0, 2), (0, 7), (1, 4), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8), (3, 4),
    (3, 5), (4, 5), (4, 6), (4, 7), (5, 6), (5, 8),
]


def test_type3_deletes_inside_the_neighborhood_of_x():
    g = Graph.from_edges(9, TYPE3_TRANSVERSAL)
    sol = partization(g, 1, 3)
    check_yes(g, sol, 1, 3)
    (name, witness), = sol.plan
    assert name == "Type3" and witness.dominators == (2, 4)
    assert sol.deleted == 1 << 5 and (g.adj[2] >> 5) & 1
    assert partization_bruteforce(g, 1, 3) is not None
    assert partization_bruteforce(g, 0, 3) is None


def test_type4_k3_and_net():
    sol = delete_to_type4(complete_graph(3), 0)
    assert sol.deleted == 0
    check_yes(complete_graph(3), sol, 0, 3)
    sol = delete_to_type4(net_graph(), 0)
    assert sol is not None and sol.deleted == 0
    check_yes(net_graph(), sol, 0, 3)


def test_type4_k4_delete_one():
    sol = delete_to_type4(complete_graph(4), 1)
    assert sol is not None and sol.size == 1
    check_yes(complete_graph(4), sol, 1, 3)


def test_type5_path3():
    sol = delete_to_type5(path_graph(3), 0)
    assert sol is not None and sol.deleted == 0
    check_yes(path_graph(3), sol, 0, 3)


def test_partization3_named():
    assert partization3(complete_graph(5), 1) is None
    sol = partization3(complete_graph(5), 2)
    check_yes(complete_graph(5), sol, 2, 3)
    assert partization3(disjoint_union(cycle_graph(6), Graph(1, [0])), 0) is None


def test_partization2_named():
    sol = partization2(complete_graph(3), 1)
    check_yes(complete_graph(3), sol, 1, 2)
    sol = partization2(cycle_graph(5), 1)
    check_yes(cycle_graph(5), sol, 1, 2)
    assert partization2(complete_graph(4), 1) is None


def test_bruteforce_examples():
    assert partization_bruteforce(complete_graph(5), 2, 3) is not None
    assert partization_bruteforce(complete_graph(5), 1, 3) is None
    g = random_graph(5, 0.5, random.Random(3))
    sol = partization_bruteforce(g, 5, 0)
    assert sol is not None and sol.size == 5  # delete everything
    sol = partization_bruteforce(path_graph(5), 12, 1)  # any k > n is fine
    assert sol is not None and sol.size == 4 and sol.coloring.q == 1
    with pytest.raises(CapacityError):
        partization_bruteforce(random_graph(10, 0.5, random.Random(1)), 1, 3)


def test_coloring_payload_names_a_wrong_shape():
    g = path_graph(3)
    for payload in (
        {"classes": 5, "dominators": []},
        {"classes": [1], "dominators": []},
        {"classes": [[0]], "dominators": 0},
        {"classes": [[[0]]], "dominators": [0]},
    ):
        with pytest.raises(ValueError, match="certificate has the wrong shape"):
            CdColoring.from_payload(payload, g)
    with pytest.raises(ValueError, match="certificate references unknown vertex 9"):
        CdColoring.from_payload({"classes": [[0, 9]], "dominators": [1]}, g)


def test_coloring_payload_names_a_missing_field():
    g = path_graph(3)
    payload = CdColoring(((0, 2), (1,)), (1, 1)).to_payload(g)
    assert CdColoring.from_payload(payload, g) == CdColoring(((0, 2), (1,)), (1, 1))
    for field in ("classes", "dominators"):
        rest = {key: value for key, value in payload.items() if key != field}
        with pytest.raises(ValueError, match=f"certificate has no '{field}' field"):
            CdColoring.from_payload(rest, g)


def corpus(count, seed, n_lo=3, n_hi=8):
    rng = random.Random(seed)
    graphs = [
        random_graph(rng.randint(n_lo, n_hi), rng.choice([0.2, 0.5, 0.8]), rng)
        for _ in range(count)
    ]
    graphs += [
        cycle_graph(5),
        cycle_graph(6),
        complete_graph(4),
        complete_graph(5),
        star_graph(4),
        net_graph(),
        path_graph(6),
        disjoint_union(path_graph(2), path_graph(3)),
    ]
    return graphs


def brute_table(g, k_max, q):
    return [partization_bruteforce(g, k, q) is not None for k in range(k_max + 1)]


def test_partization3_matches_oracle():
    for g in corpus(60, seed=151):
        want = brute_table(g, 3, 3)
        for k in range(4):
            sol = partization3(g, k)
            assert (sol is not None) == want[k], (g.adj, k)
            if sol is not None:
                check_yes(g, sol, k, 3)


def test_partization2_matches_oracle():
    for g in corpus(60, seed=157):
        want = brute_table(g, 3, 2)
        for k in range(4):
            sol = partization2(g, k)
            assert (sol is not None) == want[k], (g.adj, k)
            if sol is not None:
                check_yes(g, sol, k, 2)


def test_many_components_answer_no_without_a_matcher(monkeypatch):
    # a 4-cycle, an edge to a far vertex and 1,994 isolated vertices
    g = parse_graph("1 2\n2 3\n3 4\n4 1\n5 6\n5 2000\n", "edgelist")

    def matcher(g, k, active=None):
        raise AssertionError("a Type matcher ran")

    monkeypatch.setattr(partize, "delete_to_type1", matcher)
    monkeypatch.setattr(partize, "_TYPE_SOLVERS", (matcher,) * 5)
    for k in range(3):
        assert partization3(g, k) is None
        assert partization2(g, k) is None


def test_component_bound_matches_oracle_on_unions():
    rng = random.Random(173)
    for _ in range(40):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 5))]
        while sum(sizes) > PARTIZATION_BRUTE_N_CAP:
            sizes.pop()
        g = disjoint_union(*[random_graph(n, 0.6, rng) for n in sizes])
        for q, solver in ((3, partization3), (2, partization2)):
            want = brute_table(g, 3, q)
            for k in range(4):
                sol = solver(g, k)
                assert (sol is not None) == want[k], (g.adj, k, q)
                if sol is not None:
                    check_yes(g, sol, k, q)


def test_degree_bound_matches_oracle():
    # each class fits in one neighborhood, so at most q * max(Δ, 1)
    # vertices can remain; sparse graphs make the bound fire
    rng = random.Random(179)
    fired = 0
    for _ in range(30):
        g = random_graph(rng.randint(1, 9), rng.choice([0.05, 0.15, 0.3, 0.6]), rng)
        for q, solver in ((3, partization3), (2, partization2)):
            least = partization_bruteforce(g, g.n, q).size
            for k in range(g.n + 1):
                if partize._keeps_too_many(g, k, q):
                    fired += 1
                    assert k < least, (g.adj, k, q)
                sol = solver(g, k)
                assert (sol is not None) == (k >= least), (g.adj, k, q)
                if sol is not None:
                    check_yes(g, sol, k, q)
    assert fired >= 20, fired



def test_bounds_match_oracle_for_q_4_and_5():
    # partization answers q >= 4 NO by these bounds, and YES by a small
    # remainder or the 3-color route, before it walks the deletion sets
    rng = random.Random(191)
    fired = clique = 0
    for _ in range(40):
        g = random_graph(rng.randint(5, 9), rng.choice([0.05, 0.1, 0.2, 0.4, 0.7, 0.9]), rng)
        for q in (4, 5):
            least = partization_bruteforce(g, g.n, q).size
            for k in range(g.n + 1):
                if partize._greedy_clique(g) - k > q:
                    clique += 1
                    assert k < least, (g.adj, k, q)
                if partize._ruled_out(g, k, q):
                    fired += 1
                    assert k < least, (g.adj, k, q)
                sol = partization(g, k, q)
                assert (sol is not None) == (k >= least), (g.adj, k, q)
                if sol is not None:
                    check_yes(g, sol, k, q)
    assert fired >= 20 and clique >= 10, (fired, clique)


def test_exact_walk_matches_oracle_for_q_4_to_6():
    # the oracle's deletion set for any k is its first set in the walk
    # order, so one call with k = n settles every k
    rng = random.Random(193)
    walked = walked_no = 0
    for _ in range(45):
        g = random_graph(rng.randint(4, 9), rng.choice([0.4, 0.6, 0.8]), rng)
        for q in (4, 5, 6):
            want = partization_bruteforce(g, g.n, q).deleted
            for k in range(5):
                sol = partization(g, k, q)
                assert (sol is not None) == (k >= want.bit_count()), (g.adj, k, q)
                if sol is None:
                    walked_no += not partize._ruled_out(g, k, q)
                    continue
                check_yes(g, sol, k, q)
                if sol.plan == (("Exact", None),):
                    walked += 1
                    assert sol.deleted == want, (g.adj, k, q)
    assert walked >= 100 and walked_no >= 3, (walked, walked_no)


def test_exact_walk_refuses_past_its_budget_before_any_solve(monkeypatch):
    def solve(g, comp, cap):
        raise AssertionError("the exact engine ran")

    monkeypatch.setattr(exact, "_exact_component", solve)
    # 2325 deletion sets of at most 3 of 24 vertices, 2**24 bits each
    g = random_graph(24, 0.3, random.Random(1))
    with pytest.raises(CapacityError, match=r"EXACT_WALK_BUDGET=17179869184\b"):
        partization(g, 3, 4)
    # each of 5 components is charged 2**17 bits: 31931 sets exceed 2**34
    rng = random.Random(1)
    five = disjoint_union(*[random_graph(6, 0.5, rng) for _ in range(5)])
    with pytest.raises(CapacityError, match="EXACT_WALK_BUDGET"):
        partization(five, 4, 8)
    with pytest.raises(CapacityError, match="exceeds DEFAULT_EXACT_CAP=26") as refused:
        partization(random_graph(27, 0.25, random.Random(1)), 0, 6)
    assert str(refused.value).endswith(": 27 vertices after merging false twins")


def test_exact_walk_counts_false_twins_as_the_engine_does():
    # 29 vertices, 22 after the hub's 8 pendants merge: under the cap
    lift = generate_from_partization(random_graph(20, 0.4, random.Random(1)), 4, 2).graph
    assert lift.n == 29 > exact.DEFAULT_EXACT_CAP
    sol = partization(lift, 0, 6)
    assert sol.deleted == 0 and sol.plan == (("Exact", None),)
    check_yes(lift, sol, 0, 6)


def test_exact_walk_solves_each_component_once(monkeypatch):
    # four 6-vertex components: most deletion sets leave three untouched
    calls = []
    solve = exact._exact_component

    def counting(g, comp, cap):
        calls.append(comp)
        return solve(g, comp, cap)

    monkeypatch.setattr(exact, "_exact_component", counting)
    rng = random.Random(1)
    four = disjoint_union(*[random_graph(6, 0.5, rng) for _ in range(4)])
    assert partization(four, 4, 6) is None
    assert calls and len(calls) == len(set(calls))


def test_exact_walk_solves_the_winning_remainder_once(monkeypatch):
    # one connected component at q = its cd-chromatic number and k = 0:
    # the walk scores the whole graph and keeps that answer's coloring
    calls = []
    solve = exact.cd_chromatic_exact

    def counting(g, cap=exact.DEFAULT_EXACT_CAP, active=None):
        calls.append(active)
        return solve(g, cap, active)

    monkeypatch.setattr(exact, "cd_chromatic_exact", counting)
    lift = generate_from_partization(random_graph(20, 0.4, random.Random(1)), 4, 2).graph
    sol = partization(lift, 0, 6)
    assert sol.deleted == 0 and sol.plan == (("Exact", None),)
    assert calls == [lift.full_mask]
    check_yes(lift, sol, 0, 6)


def test_partization_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = partization(complete_graph(4), 0, 4)  # the walk
        assert sol.plan == (("Exact", None),) and sol.coloring.q == 4
        assert partization(cycle_graph(5), 0, 4) is not None  # the Types
        assert partization(complete_graph(4), 1, 4) is not None  # 3 remain
        assert partization(Graph(0, []), 0, 5) is not None
        assert partization(path_graph(12), 0, 4) is None  # 12 > 4 * max(Δ, 1)
        assert partization(complete_graph(10), 1, 4) is None  # clique: 10 - 1 > 4
        assert partization(complete_graph(3), -1, 4) is None
        assert partization(complete_graph(3), 3, -1) is None


def test_type2_matches_type1_per_retained_vertex():
    rng = random.Random(181)
    for i in range(150):
        lift = i % 3 == 0  # a lift adds k + q_base + 3 vertices to its base
        g = random_graph(rng.randint(1, 6 if lift else 14), rng.choice([0.2, 0.4, 0.7]), rng)
        if lift:
            g = generate_from_partization(g, rng.randint(0, 3), rng.choice([1, 2])).graph
        assert g.n <= 14
        active = g.full_mask if i % 4 == 0 else rng.getrandbits(g.n) | rng.getrandbits(g.n)
        for k in range(4):
            want = type2_by_type1(g, k, active)
            assert repr(delete_to_type2(g, k, active)) == repr(want), (g.adj, k, active)


def test_small_remainder_answers_q_at_most_1():
    # a class is independent and holds its dominator, so q <= 1 colors
    # fit exactly when at most q vertices remain
    for g in corpus(30, seed=159):
        for q in (0, 1):
            want = brute_table(g, g.n, q)
            for k in range(g.n + 1):
                sol = partize._small_remainder(g, k, q)
                assert (sol is not None) == want[k] == (g.n - k <= q), (g.adj, k, q)
                if sol is not None:
                    check_yes(g, sol, k, q)


def test_monotone_in_budget():
    for g in corpus(25, seed=163):
        prev3 = prev2 = False
        for k in range(4):
            now3 = partization3(g, k) is not None
            now2 = partization2(g, k) is not None
            assert now3 or not prev3
            assert now2 or not prev2
            prev3, prev2 = now3, now2


def test_certificates_never_delete_dominators():
    for g in corpus(30, seed=167):
        for k in (1, 2, 3):
            sol = partization3(g, k)
            if sol is None:
                continue
            assert not mask_of(sol.coloring.dominators) & sol.deleted
            for _, witness in sol.plan:
                if witness is not None:
                    assert not mask_of(witness.dominators) & sol.deleted


# C5 minus vertex 4 is the path 0-1-2-3, which {0, 2} | {1, 3} colors
@pytest.mark.parametrize(
    "deleted, classes, dominators, q, problem",
    [
        (1 << 4, ((0, 2), (1, 3)), (1, 2), 2, None),
        (1 << 4, ((0, 2), (1, 3, 4)), (1, 2), 2, "inactive vertex 4"),
        (1 << 4, ((0, 2), (1, 3)), (1, 4), 2, "dominator 4 of class 1 is inactive"),
        (1 << 4, ((0, 2), (1,)), (1, 2), 2, "vertex 3 is uncolored"),
        (1 << 7, ((0, 2), (1, 3)), (1, 2), 2, "deleted set references unknown"),
        (1 << 4, ((0, 2), (1, 3)), (1, 2), 1, "coloring uses 2 > 1 colors"),
        (1 << 4, ((0, 1), (2, 3)), (0, 2), 2, "edge (0, 1) inside class 0"),
    ],
)
def test_validate_deletion_names_the_problem(deleted, classes, dominators, q, problem):
    sol = DeletionSolution(deleted, (), CdColoring(classes, dominators))
    report = validate_deletion(cycle_graph(5), sol, q)
    assert report.ok == (problem is None)
    assert problem is None or problem in report.problem


# SHA-256 of repr(answer) on seeded lifts, (q_base, base n, p, k, seed) ->
# digest, taken from a Type 3 search that tried every y: skipping a y
# must never change an answer.  partization3 answers q_base 2 (its YES
# answers are Type 3), partization2 answers q_base 1.
NONE_DIGEST = hashlib.sha256(b"None").hexdigest()
LIFT_DIGESTS = {
    (1, 10, 0.15, 3, 1): NONE_DIGEST,
    (1, 10, 0.15, 3, 2): "1da6248f3ec1bc96e1ae67c719ab01cbb72d82eb2bb8d1a51b4f3f288644d25d",
    (2, 12, 0.25, 2, 1): NONE_DIGEST,
    (2, 12, 0.25, 2, 2): "aa6c31ba535b4cd9a7b61eedb3335d4efaac27e52ab8a4c245b2ecfe93104a62",
    (2, 12, 0.25, 2, 3): "2275eaf00fa5187ad7172df639dd42d1551dd9ac24ac1a012de401e531c45d27",
    (2, 14, 0.25, 3, 1): "69e9a00e28a76ed6b97666d80274380e37746b3cd111afa186e76d22ed39f7c2",
    (2, 14, 0.25, 3, 5): NONE_DIGEST,
}


@pytest.mark.parametrize("q_base, n, p, k, seed", sorted(LIFT_DIGESTS))
def test_lift_answers_are_pinned(q_base, n, p, k, seed):
    inst = generate_from_partization(random_graph(n, p, random.Random(seed)), k, q_base)
    sol = (partization3 if q_base == 2 else partization2)(inst.graph, k)
    assert (sol is not None) == inst.expected
    digest = hashlib.sha256(repr(sol).encode()).hexdigest()
    assert digest == LIFT_DIGESTS[q_base, n, p, k, seed]


# SHA-256 of repr of the answers for q = 0..3 and k = 0..3 below, taken
# from the per-q routes (``_small_remainder`` for q <= 1, ``partization2``
# and ``partization3``) before ``partization`` merged them.
ROUTER_DIGEST = "36316524a1a657d956f7e95b4ca22df08538f0deda921842a12da22b8962a1e8"


def router_instances(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        lift = i % 3 == 0  # a lift adds k + q_base + 3 vertices to its base
        g = random_graph(rng.randint(2, 6 if lift else 10), rng.choice([0.3, 0.5, 0.7]), rng)
        if lift:
            g = generate_from_partization(g, rng.randint(0, 3), rng.choice([1, 2])).graph
        yield g


def test_router_answers_are_pinned():
    answers = [
        partization(g, k, q)
        for g in router_instances(90, 211)
        for q in range(4)
        for k in range(4)
    ]
    assert 400 <= sum(a is not None for a in answers) <= 700
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == ROUTER_DIGEST


def matchers_alone(g, k):
    """``partization(g, k, 3)`` with each matcher on a fresh cover memo."""
    small = partize._small_remainder(g, k, 3)
    if small is not None or partize._ruled_out(g, k, 3):
        return small
    for solver in partize._TYPE_SOLVERS:
        sol = solver(g, k)
        if sol is not None:
            return sol
    return None


def test_shared_cover_memo_answers_like_matchers_alone():
    rng = random.Random(229)
    answers = 0
    for i in range(1000):
        lift = i % 3 == 0  # a lift adds k + q_base + 3 vertices to its base
        g = random_graph(rng.randint(2, 8 if lift else 16), rng.choice([0.2, 0.35, 0.5]), rng)
        if lift:
            g = generate_from_partization(g, rng.randint(0, 3), rng.choice([1, 2])).graph
        assert g.n <= 16
        k = i % 4
        sol = partization(g, k, 3)
        assert repr(sol) == repr(matchers_alone(g, k)), (g.adj, k)
        answers += sol is not None
    assert 200 <= answers <= 800


def test_a_no_lift_makes_few_vertex_cover_calls(monkeypatch):
    # a NO lift of a base with n = 30 and n(n-1)/8 edges: every Type runs
    rng = random.Random(1)
    pairs = [(u, v) for u in range(30) for v in range(u + 1, 30)]
    base = Graph.from_edges(30, rng.sample(pairs, 30 * 29 // 8))
    assert odd_cycle_transversal(base, 2) is None
    lift = generate_from_partization(base, 2, 2).graph
    calls = []
    cover = partize.vertex_cover

    def counting(g, k, active=None):
        calls.append(active)
        return cover(g, k, active)

    monkeypatch.setattr(partize, "vertex_cover", counting)
    assert partization(lift, 2, 3) is None
    assert len(calls) <= 400  # 741 before the matchers shared one memo


# Type 5 at (x, y, z) = (2, 3, 0) deletes 8, a private neighbor of z, by
# vertex cover, and 1, beside x, by the side-pinned transversal
TYPE5_BOTH_PARTS = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 8), (1, 2), (1, 4), (1, 5),
    (1, 8), (2, 5), (2, 7), (3, 6), (4, 5), (4, 6), (4, 8), (5, 8),
]


def test_type5_deletes_in_both_its_cover_and_transversal_parts(monkeypatch):
    g = Graph.from_edges(9, TYPE5_BOTH_PARTS)
    forced = []
    solve = partize.odd_cycle_transversal

    def recording(g, k, active=None, undeletable=0, first=0, second=0):
        found = solve(g, k, active, undeletable, first, second)
        if first | second:
            forced.append(found)
        return found

    monkeypatch.setattr(partize, "odd_cycle_transversal", recording)
    built = []
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting)
    sol = partization(g, 2, 3)
    assert built == []  # the transversal answers on g itself, building no graph
    check_yes(g, sol, 2, 3)
    (name, witness), = sol.plan
    assert name == "Type5" and witness.dominators == (2, 3, 0)
    x, y, z = witness.dominators
    z_part = g.adj[z] & ~(g.closed(x) | g.closed(y))
    assert sol.deleted & z_part == 1 << 8
    assert forced[-1] == 1 << 1 == sol.deleted & ~z_part
    assert partization_bruteforce(g, 2, 3) is not None
    assert partization_bruteforce(g, 1, 3) is None

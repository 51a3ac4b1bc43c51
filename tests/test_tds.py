import hashlib
import itertools
import random
import sys

import pytest

from cdcolor import tds
from cdcolor.bits import bit_list, mask_of
from cdcolor.coloring import validate_cd_coloring
from cdcolor.errors import CapacityError, PreconditionError
from cdcolor.exact import cd_chromatic_bruteforce, cd_chromatic_exact
from cdcolor.generate import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    petersen_graph,
    random_girth5_graph,
    star_graph,
)
from cdcolor.graph import Graph, girth, is_connected, to_dimacs
from cdcolor.tds import (
    TdsCertificate,
    _coloring_from_set,
    _greedy_tds,
    _min_tds,
    cd_chromatic_girth5,
    is_total_dominating,
    kernel_size_bound,
    tds_kernelize,
    tds_solve,
)

from _brute import (
    brute_min_tds,
    greedy_tds_rescoring,
    tds_bruteforce,
    tree_total_domination,
)


def girth5_corpus(count, n_lo, n_hi, seed, connected=False):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_girth5_graph(
            rng.randint(n_lo, n_hi),
            rng,
            density=rng.choice([0.2, 0.5, 0.9]),
            connected=connected,
            hub=rng.random() < 0.4,
        )
        if connected and not is_connected(g):
            continue
        out.append(g)
    return out


def random_recursive_tree(n, rng):
    """Vertex ``i`` joins a uniformly chosen earlier vertex."""
    return Graph.from_edges(n, [(rng.randrange(i), i) for i in range(1, n)])


def path_or_cycle_gamma_t(n):
    return n // 2 + (n + 3) // 4 - n // 4


def test_is_total_dominating():
    c4 = cycle_graph(4)
    assert is_total_dominating(c4, mask_of([0, 1]))
    assert not is_total_dominating(c4, 0)
    # a star center alone never dominates itself
    assert not is_total_dominating(star_graph(3), 1)


def test_kernel_c5_unchanged():
    out = tds_kernelize(cycle_graph(5), 3)
    assert out.verdict == "REDUCED"
    assert out.keep == 0b11111 and out.forced == 0


def test_kernel_star_forces_center():
    out = tds_kernelize(star_graph(3), 2)
    assert out.verdict == "REDUCED"
    assert out.forced == 1  # the center, degree 3 > k
    assert out.keep.bit_count() == 2  # two twin leaves dropped


def test_kernel_girth_precondition():
    with pytest.raises(PreconditionError):
        tds_kernelize(complete_graph(3), 2)
    with pytest.raises(PreconditionError):
        tds_solve(cycle_graph(4), 2)


def test_kernel_with_k_zero():
    out = tds_kernelize(Graph(0, []), 0)
    assert out.verdict == "REDUCED"
    assert out.keep == 0 and out.forced == 0
    for g in (Graph(1, [0]), Graph(2, [0, 0]), path_graph(2), cycle_graph(5)):
        out = tds_kernelize(g, 0)
        assert out.verdict == "NO" and out.reason
        assert tds_solve(g, 0) is None and tds_bruteforce(g, 0) is None
    with pytest.raises(PreconditionError):
        tds_kernelize(cycle_graph(5), -1)


def test_kernel_no_when_many_hubs():
    # two adjacent centers with three leaves each; both have degree 4 > k=1
    g = Graph.from_edges(
        8, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (4, 6), (4, 7)]
    )
    out = tds_kernelize(g, 1)
    assert out.verdict == "NO"
    assert tds_solve(g, 1) is None
    assert tds_bruteforce(g, 1) is None


def test_kernel_size_bound_on_corpus():
    for g in girth5_corpus(40, 6, 16, seed=61):
        for k in (1, 2, 3, 4):
            out = tds_kernelize(g, k)
            if out.verdict == "REDUCED":
                assert out.keep.bit_count() <= kernel_size_bound(k)


def test_kernel_preserves_answer():
    for g in girth5_corpus(60, 5, 12, seed=67):
        for k in (1, 2, 3):
            out = tds_kernelize(g, k)
            brute = tds_bruteforce(g, k)
            if out.verdict == "NO":
                assert brute is None
            else:
                solved = tds_solve(g, k)
                assert (solved is not None) == (brute is not None)


def test_reduction_rule_safety():
    # re-adding any deleted vertex never changes solvability at k
    for g in girth5_corpus(30, 6, 12, seed=71):
        for k in (2, 3):
            out = tds_kernelize(g, k)
            if out.verdict != "REDUCED" or out.keep == g.full_mask:
                continue
            kernel, _ = g.induced(out.keep)
            for u in bit_list(g.full_mask & ~out.keep):
                sub, _ = g.induced(out.keep | (1 << u))
                a = tds_bruteforce(sub, k)
                b = tds_bruteforce(kernel, k)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.size == b.size


def test_solve_examples():
    c5 = cycle_graph(5)
    assert tds_solve(c5, 3).size == 3
    assert tds_solve(c5, 2) is None
    assert tds_solve(petersen_graph(), 4).size == 4
    assert tds_solve(petersen_graph(), 1) is None


def test_solve_matches_bruteforce():
    for i, g in enumerate(girth5_corpus(80, 5, 18, seed=73)):
        k = 1 + i % 4
        solved = tds_solve(g, k)
        brute = tds_bruteforce(g, k)
        assert (solved is not None) == (brute is not None)
        if solved is not None:
            assert solved.size == brute.size
            assert is_total_dominating(g, solved.mask)


def test_solve_disconnected_sums_components():
    g = disjoint_union(cycle_graph(5), path_graph(4))
    assert tds_solve(g, 5).size == 5  # 3 + 2
    assert tds_solve(g, 4) is None
    # an isolated vertex is hopeless
    assert tds_solve(disjoint_union(path_graph(4), Graph(1, [0])), 6) is None


def test_empty_graph_has_the_empty_total_dominating_set():
    empty = Graph(0, [])
    assert is_total_dominating(empty, 0)
    for k in (0, 1, 2):
        assert tds_solve(empty, k) == TdsCertificate(0, 0)
        assert tds_bruteforce(empty, k) == TdsCertificate(0, 0)
    assert tds_solve(empty, -1) is None and tds_bruteforce(empty, -1) is None
    for g in (cycle_graph(5), path_graph(4), Graph(1, [0]), petersen_graph()):
        for k in range(-1, 5):
            solved, brute = tds_solve(g, k), tds_bruteforce(g, k)
            assert (solved is None) == (brute is None), (g.adj, k)
            if solved is not None:
                assert solved.size == brute.size


def test_bruteforce_examples():
    assert tds_bruteforce(path_graph(4), 4).mask == mask_of([1, 2])
    assert tds_bruteforce(path_graph(2), 2).mask == 0b11
    assert tds_bruteforce(cycle_graph(6), 6).size == 4
    with pytest.raises(CapacityError):
        tds_bruteforce(cycle_graph(21), 2)


def test_bruteforce_agrees_with_independent_search():
    rng = random.Random(79)
    for _ in range(25):
        g = random_girth5_graph(rng.randint(4, 10), rng, density=0.6)
        got = tds_bruteforce(g, 4)
        want = brute_min_tds(g, 4)
        assert (got is None) == (want is None)
        if got is not None:
            assert got.size == want.bit_count()


def test_coloring_from_tds_c4():
    c4 = cycle_graph(4)
    col = _coloring_from_set(c4, mask_of([0, 1]))
    assert col.classes == ((1, 3), (0, 2))
    assert col.dominators == (0, 1)
    assert validate_cd_coloring(c4, col).ok


def test_coloring_from_tds_k2():
    col = _coloring_from_set(path_graph(2), 0b11)
    assert col.classes == ((1,), (0,))


def test_coloring_from_tds_c5():
    c5 = cycle_graph(5)
    cert = tds_solve(c5, 3)
    col = _coloring_from_set(c5, cert.mask)
    assert col.q == 3 and validate_cd_coloring(c5, col).ok


def test_girth5_named():
    assert cd_chromatic_girth5(cycle_graph(5))[0] == 3
    assert cd_chromatic_girth5(petersen_graph())[0] == 4
    assert cd_chromatic_girth5(path_graph(4))[0] == 2
    assert cd_chromatic_girth5(Graph(1, [0]))[0] == 1
    # components add up: 3 + 4 + 1
    g = disjoint_union(cycle_graph(5), petersen_graph(), Graph(1, [0]))
    q, wit = cd_chromatic_girth5(g)
    assert q == 8 and wit.q == 8
    report = validate_cd_coloring(g, wit)
    assert report.ok, report.problem
    with pytest.raises(PreconditionError):
        cd_chromatic_girth5(cycle_graph(4))
    with pytest.raises(PreconditionError):
        cd_chromatic_girth5(disjoint_union(cycle_graph(5), cycle_graph(4)))


def test_girth5_matches_oracle():
    seen = 0
    for g in girth5_corpus(60, 2, 9, seed=83, connected=True):
        assert girth(g) >= 5 and is_connected(g)
        q, wit = cd_chromatic_girth5(g)
        assert q == cd_chromatic_bruteforce(g)[0]
        report = validate_cd_coloring(g, wit)
        assert report.ok, report.problem
        seen += 1
    assert seen == 60


def test_girth_checked_once_per_call(monkeypatch):
    calls = []

    def counting(g, *limit):
        calls.append(1)
        return girth(g, *limit)

    monkeypatch.setattr(tds, "girth", counting)
    rng = random.Random(89)
    wide = random_girth5_graph(30, rng, density=0.3, connected=True)
    split = disjoint_union(cycle_graph(5), petersen_graph(), path_graph(3))
    for g in (wide, split, petersen_graph()):
        calls.clear()
        cd_chromatic_girth5(g)
        assert len(calls) == 1
        for k in (1, 4, 12):
            calls.clear()
            tds_solve(g, k)
            assert len(calls) == 1


def test_girth5_matches_exact_beyond_oracle_cap():
    rng = random.Random(97)
    for i in range(40):
        g = random_girth5_graph(
            rng.randint(14, 20), rng, density=rng.choice([0.3, 0.6]),
            connected=True, hub=i % 3 == 0,
        )
        q, wit = cd_chromatic_girth5(g)
        q_exact, wit_exact = cd_chromatic_exact(g)
        assert q == q_exact, g.adj
        for coloring in (wit, wit_exact):
            report = validate_cd_coloring(g, coloring)
            assert report.ok, report.problem


def test_min_tds_matches_bruteforce():
    compared = 0
    for g in girth5_corpus(60, 8, 20, seed=101):
        if any(not g.adj[v] for v in range(g.n)):
            assert _min_tds(g) is None
            continue
        found = _min_tds(g)
        assert is_total_dominating(g, found)
        brute = tds_bruteforce(g, 6)
        if brute is None:
            assert found.bit_count() > 6
        else:
            assert found.bit_count() == brute.size, g.adj
            compared += 1
    assert compared >= 30


def test_min_tds_forced_and_cap():
    # against an exhaustive search over the supersets of the forced set
    rng = random.Random(103)
    for g in girth5_corpus(40, 5, 11, seed=107, connected=True):
        forced = mask_of(rng.sample(range(g.n), rng.randint(0, 2)))
        free = bit_list(g.full_mask & ~forced)
        want = next(
            forced.bit_count() + extra
            for extra in range(len(free) + 1)
            for combo in itertools.combinations(free, extra)
            if is_total_dominating(g, forced | mask_of(combo))
        )
        found = _min_tds(g, forced)
        assert found & forced == forced and is_total_dominating(g, found)
        assert found.bit_count() == want
        assert _min_tds(g, forced, want).bit_count() == want
        assert _min_tds(g, forced, want - 1) is None


def test_lazy_greedy_matches_the_rescoring_greedy():
    rng = random.Random(109)
    nones = 0
    for _ in range(2000):
        g = random_girth5_graph(
            rng.randint(1, 36), rng, density=rng.choice([0.2, 0.5, 0.9]),
            hub=rng.random() < 0.3,
        )
        active = g.full_mask if rng.random() < 0.3 else rng.getrandbits(g.n)
        forced = active & rng.getrandbits(g.n) & rng.getrandbits(g.n)
        undom = active
        for v in bit_list(forced):
            undom &= ~g.adj[v]
        want = greedy_tds_rescoring(g, forced, undom, active)
        assert _greedy_tds(g, forced, undom, active) == want, (g.adj, active, forced)
        nones += want is None
    assert 200 <= nones <= 1800


def test_tree_oracle_matches_bruteforce():
    rng = random.Random(113)
    for _ in range(300):
        n = rng.randint(1, 12)
        # a forest: each vertex joins an earlier one, or starts a tree
        g = Graph.from_edges(
            n, [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.85]
        )
        want = None if any(not g.adj[v] for v in range(n)) else brute_min_tds(g, n)
        got = tree_total_domination(g)
        assert got == (None if want is None else want.bit_count()), g.adj


@pytest.mark.parametrize("n", [50, 200, 800])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_girth5_matches_the_tree_oracle(n, seed):
    g = random_recursive_tree(n, random.Random(seed))
    q, wit = cd_chromatic_girth5(g)
    assert q == tree_total_domination(g)
    report = validate_cd_coloring(g, wit)
    assert report.ok, report.problem


def test_girth5_on_paths_and_cycles():
    for n in list(range(2, 41)) + [1000, 4000]:
        g = path_graph(n)
        want = path_or_cycle_gamma_t(n)
        assert tree_total_domination(g) == want
        assert cd_chromatic_girth5(g)[0] == want, n
    for n in list(range(5, 41)) + [1001, 3001]:
        assert cd_chromatic_girth5(cycle_graph(n))[0] == path_or_cycle_gamma_t(n), n


def test_girth5_needs_no_recursion():
    g = random_recursive_tree(800, random.Random(1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        q, wit = cd_chromatic_girth5(g)
        cert = tds_solve(g, q)
    finally:
        sys.setrecursionlimit(limit)
    assert q == tree_total_domination(g) == cert.size
    assert validate_cd_coloring(g, wit).ok


def test_search_budget_raises_a_named_capacity_error(monkeypatch):
    monkeypatch.setattr(tds, "TDS_SEARCH_BUDGET", 5)
    g = petersen_graph()
    with pytest.raises(CapacityError, match="TDS_SEARCH_BUDGET=5 "):
        cd_chromatic_girth5(g)
    with pytest.raises(CapacityError, match="TDS_SEARCH_BUDGET=5 "):
        tds_solve(g, 4)


# The girth5-tds benchmark draws its graphs from this generator with
# these settings, so its output must not drift.
GIRTH5_DIGESTS = {
    (30, False, 1): "d33f6eab4372bae5f00354ebb66302d052ba26fc1d50de7d33c4a1cde706c4f3",
    (30, False, 2): "c85b58153332342162513eebe3e54c3e1e0f3387e4dc68d2f0d1214dc2e15f94",
    (30, False, 3): "da8641d66b7e36362788b6413ef16fac89b2eb9408b19d1fc79033b21a69ae02",
    (40, True, 1): "9f0155cee377272dc0493aab5cb4c32d650c3587bd7e853af5abadbcc0b11c32",
    (40, True, 2): "74c009b60c847f5811c9613f031fc6801f7daaea0dd2e20bab17651889d52334",
    (40, True, 3): "a35c203d76381ce60a1a6d18480a4766848bd199655eff97010f9ea33fd75c17",
}


@pytest.mark.parametrize("n, hub, seed", sorted(GIRTH5_DIGESTS))
def test_random_girth5_graph_is_pinned(n, hub, seed):
    g = random_girth5_graph(
        n, random.Random(seed), density=0.3, connected=True, hub=hub
    )
    digest = hashlib.sha256(to_dimacs(g).encode()).hexdigest()
    assert digest == GIRTH5_DIGESTS[n, hub, seed]

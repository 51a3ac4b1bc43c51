"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every expected value is either produced by an independent brute-force
oracle inside the test or is a frozen constant that the oracle
reproduces first.
"""

import random
import resource
import time

from cdcolor.bits import bit_list, mask_of
from cdcolor.cli import main
from cdcolor.coloring import validate_cd_coloring
from cdcolor.exact import cd_chromatic_bruteforce, cd_chromatic_exact
from cdcolor.fpt import odd_cycle_transversal
from cdcolor.generate import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    net_graph,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_girth5_graph,
    random_graph,
    random_split_graph,
    star_graph,
)
from cdcolor.graph import Graph, girth, is_connected, split_partition
from cdcolor.partize import (
    cd_recognize_upto3,
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
from cdcolor.tds import (
    cd_chromatic_girth5,
    is_total_dominating,
    kernel_size_bound,
    tds_kernelize,
    tds_solve,
)

from _brute import (
    brute_disjoint_union_masks,
    brute_forced_sides,
    brute_oct_min,
    brute_vertex_cover_min,
    partization_bruteforce,
    random_family_masks,
    star_product,
    tds_bruteforce,
)

GiB = 1 << 30


def report(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def named_graphs():
    gs = [complete_graph(n) for n in range(1, 7)]
    gs += [path_graph(n) for n in range(2, 7)]
    gs += [cycle_graph(n) for n in range(3, 9)]
    gs += [petersen_graph(), star_graph(3)]
    return gs


def test_criterion_1_exact_solver_oracle_equivalence():
    start = time.time()
    rng = random.Random(2024)
    checked = 0
    for p in (0.2, 0.5, 0.8):
        for _ in range(170):
            g = random_graph(rng.randint(3, 8), p, rng)
            q_exact, wit = cd_chromatic_exact(g)
            q_brute, _ = cd_chromatic_bruteforce(g)
            assert q_exact == q_brute, (g.adj, q_exact, q_brute)
            assert validate_cd_coloring(g, wit).ok
            checked += 1
    for g in named_graphs():
        q_exact, wit = cd_chromatic_exact(g)
        q_brute, _ = cd_chromatic_bruteforce(g, cap=10)
        assert q_exact == q_brute
        assert validate_cd_coloring(g, wit).ok
        checked += 1
    elapsed = time.time() - start
    assert checked >= 500
    assert elapsed < 300, f"criterion 1 took {elapsed:.0f}s"
    report(1, f"exact = oracle on {checked} graphs in {elapsed:.1f}s")


def test_criterion_2_star_product_semantics():
    rng = random.Random(2025)
    checked = 0
    for _ in range(100):
        n = rng.randint(2, 10)
        fam1 = random_family_masks(n, rng.randint(1, 28), rng)
        fam2 = random_family_masks(n, rng.randint(1, 28), rng)
        t1 = sum(1 << m for m in fam1)
        t2 = sum(1 << m for m in fam2)
        got = set(bit_list(star_product(n, t1, t2)))
        assert got == brute_disjoint_union_masks(fam1, fam2), (n, fam1, fam2)
        checked += 1
    assert checked >= 100
    report(2, f"star product = disjoint unions on {checked} families")


def test_criterion_3_named_values():
    expected = [
        (cycle_graph(4), 2),
        (cycle_graph(5), 3),
        (cycle_graph(6), 4),
        (petersen_graph(), 4),
    ] + [(complete_graph(n), n) for n in range(1, 7)]
    for g, want in expected:
        assert cd_chromatic_bruteforce(g, cap=10)[0] == want
        assert cd_chromatic_exact(g)[0] == want
    report(3, "C4=2 C5=3 C6=4 Petersen=4 Kn=n reproduced")


def test_criterion_4_exact_solver_scaling_n20():
    rng = random.Random(2026)
    times = []
    for p in (0.2, 0.5, 0.8):
        g = random_graph(20, p, rng)
        t0 = time.time()
        q, wit = cd_chromatic_exact(g)
        times.append(time.time() - t0)
        assert times[-1] < 600, f"p={p} took {times[-1]:.0f}s"
        assert validate_cd_coloring(g, wit).ok
        assert 1 <= q <= 20
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert peak < 2 * GiB, f"peak rss {peak / GiB:.2f} GiB"
    report(
        4,
        "n=20 solved in "
        + "/".join(f"{t:.1f}s" for t in times)
        + f", peak rss {peak / GiB:.2f} GiB",
    )


def test_criterion_5_girth5_path():
    rng = random.Random(2027)
    checked = 0
    while checked < 300:
        n = rng.randint(5, 18)
        g = random_girth5_graph(
            n, rng, density=rng.choice([0.2, 0.5, 0.9]), hub=rng.random() < 0.4
        )
        assert girth(g) >= 5
        k = 1 + checked % 4
        outcome = tds_kernelize(g, k)
        brute = tds_bruteforce(g, k)
        if outcome.verdict == "NO":
            assert brute is None, (g.adj, k)
        else:
            assert outcome.keep.bit_count() <= kernel_size_bound(k)
            solved = tds_solve(g, k)
            assert (solved is not None) == (brute is not None), (g.adj, k)
            if solved is not None:
                assert solved.size == brute.size
                assert is_total_dominating(g, solved.mask)
        checked += 1
    # the fast path equals the oracle on small connected girth-5 graphs
    corpus = [cycle_graph(n) for n in (5, 6, 7, 8)]
    corpus += [path_graph(n) for n in range(2, 7)]
    corpus.append(star_graph(4))
    got = 0
    while got < 50:
        g = random_girth5_graph(rng.randint(2, 9), rng, density=0.6, connected=True)
        if not is_connected(g) or girth(g) < 5:
            continue
        corpus.append(g)
        got += 1
    for g in corpus:
        q, wit = cd_chromatic_girth5(g)
        assert q == cd_chromatic_bruteforce(g)[0], g.adj
        assert validate_cd_coloring(g, wit).ok
    report(5, f"kernel+search = oracle on {checked} instances, fast path on {len(corpus)}")


def test_criterion_6_recognition():
    rng = random.Random(2028)
    checked = 0
    witnessed = 0
    while checked < 2000:
        g = random_connected_graph(
            rng.randint(1, 7), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]), rng
        )
        rec = cd_recognize_upto3(g)
        q_true = cd_chromatic_bruteforce(g)[0]
        if q_true <= 3:
            assert rec is not None and rec.coloring.q == q_true, (g.adj, q_true)
            report_ = validate_cd_coloring(g, rec.coloring)
            assert report_.ok, (g.adj, report_.problem)
            witnessed += 1
        else:
            assert rec is None, (g.adj, q_true)
        checked += 1
    report(6, f"recognition = oracle on {checked} connected graphs ({witnessed} witnesses)")


def test_criterion_7_partization():
    rng = random.Random(2029)
    graphs = [
        random_graph(rng.randint(3, 8), rng.choice([0.2, 0.5, 0.8]), rng)
        for _ in range(300)
    ]
    graphs += [
        cycle_graph(5),
        cycle_graph(6),
        complete_graph(4),
        complete_graph(5),
        net_graph(),
        star_graph(4),
        disjoint_union(cycle_graph(6), Graph(1, [0])),
    ]
    for g in graphs:
        for k in (0, 1, 2, 3):
            want = partization_bruteforce(g, k, 3) is not None
            sol = partization3(g, k)
            assert (sol is not None) == want, (g.adj, k, 3)
            if sol is not None:
                assert sol.size <= k
                rep = validate_deletion(g, sol, 3)
                assert rep.ok, rep.problem
            want2 = partization_bruteforce(g, k, 2) is not None
            sol2 = partization2(g, k)
            assert (sol2 is not None) == want2, (g.adj, k, 2)
            if sol2 is not None:
                assert sol2.size <= k
                rep = validate_deletion(g, sol2, 2)
                assert rep.ok, rep.problem
    # constrained OCT against the oracles, on graphs up to 8 vertices
    rng2 = random.Random(2030)
    for _ in range(15):
        g = random_graph(rng2.randint(3, 8), rng2.choice([0.4, 0.7]), rng2)
        for v in range(g.n):
            for k in (0, 1, 2):
                direct = brute_oct_min(g, k, avoid=v)
                got = odd_cycle_transversal(g, k, None, 1 << v)
                assert (got is None) == (direct is None)
    for _ in range(12):
        g = random_graph(rng2.randint(3, 8), 0.5, rng2)
        vs = list(range(g.n))
        p = mask_of(rng2.sample(vs, rng2.randint(0, 2)))
        qpool = [v for v in vs if not (p >> v) & 1]
        q = mask_of(rng2.sample(qpool, min(len(qpool), 2)))
        exclude = rng2.choice([None] + vs)
        undeletable = 0 if exclude is None else 1 << exclude
        for k in (0, 1, 2):
            got = odd_cycle_transversal(g, k, None, undeletable, p, q)
            want = brute_forced_sides(g, p, q, exclude, k)
            assert (got is None) == (want is None), (g.adj, p, q, exclude, k)
    report(7, f"partization q=2,3 = oracle on {len(graphs)} graphs x 4 budgets; constrained OCT = oracle")


def test_criterion_8_split_graphs():
    rng = random.Random(2031)
    checked = 0
    while checked < 200:
        g = random_split_graph(rng.randint(1, 9), rng, p=rng.random(), connected=True)
        if not is_connected(g):
            continue
        clique, _ = split_partition(g)
        q, wit = cd_chromatic_split(g)
        assert q == clique.bit_count() == cd_chromatic_bruteforce(g)[0], g.adj
        assert validate_cd_coloring(g, wit).ok
        checked += 1
    # set-cover generator: answers match solvers for all universe/family
    # sizes up to 5 (split brancher always; generic fpt when q <= 3;
    # exhaustive oracle when the instance is small enough)
    sc_checked = 0
    for _ in range(30):
        universe = rng.randint(1, 5)
        m = rng.randint(1, 5)
        sets = []
        while len(sets) < m:
            s = {x for x in range(1, universe + 1) if rng.random() < 0.6}
            if s:
                sets.append(s)
        k = rng.randint(0, m)
        inst = generate_from_setcover(universe, sets, k)
        assert inst.expected is not None
        assert (split_partization(inst.graph, inst.k, inst.q) is not None) == inst.expected
        if inst.q == 2:
            assert (partization2(inst.graph, inst.k) is not None) == inst.expected
        if inst.q == 3:
            assert (partization3(inst.graph, inst.k) is not None) == inst.expected
        if inst.graph.n <= 9:
            got = partization_bruteforce(inst.graph, inst.k, inst.q)
            assert (got is not None) == inst.expected
        sc_checked += 1
    lift_checked = 0
    for _ in range(25):
        g = random_graph(rng.randint(1, 7), rng.choice([0.3, 0.6]), rng)
        k = rng.randint(0, 2)
        q_base = rng.choice([1, 2])
        inst = generate_from_partization(g, k, q_base)
        oracle = (
            brute_vertex_cover_min(g, k) if q_base == 1 else brute_oct_min(g, k)
        )
        assert inst.expected == (oracle is not None)
        solver = partization2 if q_base == 1 else partization3
        assert (solver(inst.graph, inst.k) is not None) == inst.expected
        lift_checked += 1
    report(
        8,
        f"omega = chi_cd on {checked} split graphs; {sc_checked} set-cover and "
        f"{lift_checked} lifted instances match",
    )


def test_criterion_9_determinism(tmp_path):
    g5 = cycle_graph(5)
    labeled = Graph(g5.n, g5.adj, labels=tuple(range(1, 6)))
    from cdcolor.graph import to_dimacs

    src = tmp_path / "c5.dimacs"
    src.write_text(to_dimacs(labeled))
    k5 = complete_graph(5)
    src2 = tmp_path / "k5.dimacs"
    src2.write_text(to_dimacs(Graph(k5.n, k5.adj, labels=tuple(range(1, 6)))))
    jobs = [
        (["cdnumber", "--exact", str(src)], str(src)),
        (["recognize", "--q", "3", str(src)], str(src)),
        (["tds", "--k", "3", str(src)], str(src)),
        (["partize", "--q", "3", "--k", "2", str(src2)], str(src2)),
    ]
    for args, graph_path in jobs:
        outs = []
        for name in ("a.json", "b.json"):
            cert = tmp_path / name
            assert main(args + ["--cert-out", str(cert)]) == 0
            outs.append(cert.read_bytes())
        assert outs[0] == outs[1], args
        assert main(["validate", graph_path, str(tmp_path / "a.json")]) == 0
    # generation is byte-stable under a fixed seed
    g1, g2 = tmp_path / "g1.dimacs", tmp_path / "g2.dimacs"
    for out in (g1, g2):
        assert main(
            ["gen", "random", "--n", "14", "--p", "0.3", "--seed", "5",
             "--girth5", "--out", str(out)]
        ) == 0
    assert g1.read_bytes() == g2.read_bytes()
    report(9, "byte-identical certificates and generated instances under fixed seeds")

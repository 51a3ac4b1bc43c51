import hashlib
import random
from functools import partial, reduce

import pytest

from cdcolor import exact
from cdcolor.bits import bit_list, lack_masks, lowest_bit, mask_of
from cdcolor.coloring import CdColoring, solve_per_component, validate_cd_coloring
from cdcolor.errors import CapacityError
from cdcolor.exact import (
    DEFAULT_EXACT_CAP,
    cd_chromatic_bruteforce,
    cd_chromatic_exact,
    complement,
    cover_cuts,
    cover_power,
)
from cdcolor.generate import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_graph,
    star_graph,
)
from cdcolor.graph import Graph
from cdcolor.split import generate_from_partization

from _brute import (
    brute_disjoint_union_masks,
    brute_family_masks,
    brute_partition_into_family,
    cuts_of,
    fewer_than,
    peel_every_level,
    random_family_masks,
    star_product,
)


def family_of(g):
    """D_1, the color-class family and the empty set, built from
    D_0 = {empty set} as the engine builds it."""
    return cover_power(1, cover_cuts(g), 0)


def test_family_path3():
    # P3 = a-b-c: the empty set, singletons and the dominated pair {a, c}
    g = path_graph(3)
    fam = family_of(g)
    assert set(bit_list(fam)) == {0, 0b001, 0b010, 0b100, 0b101}


def test_family_k1_self_dominated():
    fam = family_of(Graph(1, [0]))
    assert bit_list(fam) == [0, 0b1]


def test_family_triangle_singletons_only():
    fam = family_of(complete_graph(3))
    assert set(bit_list(fam)) == {0, 0b001, 0b010, 0b100}


def test_family_matches_bruteforce():
    rng = random.Random(23)
    for _ in range(60):
        g = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]), rng)
        fam = family_of(g)
        assert set(bit_list(fam)) == brute_family_masks(g) | {0}


def test_oversized_component_is_refused_before_its_copy(monkeypatch):
    def no_copy(self, mask):
        raise AssertionError("component copied")

    monkeypatch.setattr(Graph, "induced", no_copy)
    with pytest.raises(CapacityError, match="capacity is 4 vertices, got 5"):
        cd_chromatic_exact(path_graph(5), cap=4)


def test_cap_counts_the_vertices_left_after_merging_false_twins(monkeypatch):
    # 20 base vertices, a hub and its 8 pendants, which merge into one: 22
    lift = generate_from_partization(random_graph(20, 0.4, random.Random(1)), 4, 2).graph
    assert lift.n == 29 > DEFAULT_EXACT_CAP
    q, coloring = cd_chromatic_exact(lift)
    assert q == 6 and validate_cd_coloring(lift, coloring).ok
    star = star_graph(1000)  # 1,001 vertices, 2 after merging
    q, coloring = cd_chromatic_exact(star)
    assert q == 2 and validate_cd_coloring(star, coloring).ok

    def no_copy(self, mask):
        raise AssertionError("component copied")

    monkeypatch.setattr(Graph, "induced", no_copy)
    twin = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])  # 0 and 5 are twins
    with pytest.raises(CapacityError) as refused:
        cd_chromatic_exact(twin, cap=4)
    assert str(refused.value) == (
        "exact solver capacity is 4 vertices, got 5 (6 before merging false twins); raise the cap"
    )
    with pytest.raises(CapacityError) as refused:
        cd_chromatic_exact(path_graph(5), cap=4)
    assert str(refused.value) == "exact solver capacity is 4 vertices, got 5; raise the cap"


def test_bruteforce_cap_counts_each_active_component():
    g = path_graph(12)
    assert cd_chromatic_bruteforce(g, active=0b111)[0] == 2
    spread = disjoint_union(*[path_graph(4)] * 5)  # 20 vertices, 4 per component
    assert cd_chromatic_bruteforce(spread, cap=4)[0] == cd_chromatic_exact(spread)[0] == 10
    with pytest.raises(CapacityError, match="capacity is 9 vertices, got 10"):
        cd_chromatic_bruteforce(g, active=(1 << 10) - 1)


def test_a_connected_graph_is_solved_without_a_copy(monkeypatch):
    g = random_connected_graph(10, 0.3, random.Random(89))
    labeled = Graph(3, [0b010, 0b101, 0b010], labels="abc")
    for h in (g, labeled, Graph(0, [])):
        sub, ids = h.induced(h.full_mask)
        assert sub is h and ids == list(range(h.n))
    built = []
    init = Graph.__init__

    def counting(self, n, *args, **kwargs):
        built.append(n)
        init(self, n, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting)
    q, coloring = cd_chromatic_exact(g)
    assert built == []
    assert validate_cd_coloring(g, coloring).ok
    assert g.induced(g.full_mask & ~1)[0].n == g.n - 1 and built == [g.n - 1]


def test_complement_maps_each_subset_to_its_complement():
    rng = random.Random(17)
    for n in range(11):
        full = (1 << n) - 1
        for bits in (0, (1 << (1 << n)) - 1, rng.getrandbits(1 << n)):
            want = sum(1 << (full ^ d) for d in bit_list(bits))
            assert complement(bits, n) == want


def test_star_product_singletons():
    p = mask_of([0b001])
    r = mask_of([0b010])
    assert bit_list(star_product(3, p, r)) == [0b011]


def test_star_product_annihilates_overlap():
    p = mask_of([0b001])
    assert bit_list(star_product(3, p, p)) == []


def test_star_product_path3_families():
    # {a},{c} times {b} on a 3-universe: the two disjoint unions
    p = mask_of([0b001, 0b100])
    r = mask_of([0b010])
    assert set(bit_list(star_product(3, p, r))) == {0b011, 0b110}


def test_star_product_matches_bruteforce():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 10)
        fam1 = random_family_masks(n, rng.randint(1, 24), rng)
        fam2 = random_family_masks(n, rng.randint(1, 24), rng)
        got = star_product(n, mask_of(fam1), mask_of(fam2))
        assert set(bit_list(got)) == brute_disjoint_union_masks(fam1, fam2)


def test_star_power_base_case():
    p = mask_of([0b0011, 0b0100])
    assert reduce(partial(star_product, 4), [p]) == p


def test_star_power_three_singletons():
    p = mask_of([0b001, 0b010, 0b100])
    assert bit_list(reduce(partial(star_product, 3), [p] * 3)) == [0b111]


def test_star_power_pigeonhole_empty():
    p = mask_of([0b001, 0b010, 0b100, 0b011])
    assert bit_list(reduce(partial(star_product, 3), [p] * 4)) == []


def test_power_bit_iff_partition_exists():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(2, 8)
        fam = random_family_masks(n, rng.randint(1, 12), rng)
        table = mask_of(fam)
        for ell in (1, 2, 3, 4):
            power = reduce(partial(star_product, n), [table] * ell)
            for w in range(1 << n):
                assert bool(power >> w & 1) == brute_partition_into_family(
                    w, fam, ell
                ), (n, fam, ell, w)


def random_table(n, rng):
    """Random table over an n-universe, about a third holding the empty set,
    with its member list."""
    fam = random_family_masks(n, rng.randint(1, 16), rng)
    fam += [0] * (rng.random() < 0.3)
    return mask_of(fam), fam


def test_repeated_products_match_partitions_into_the_family():
    rng = random.Random(53)
    for _ in range(80):
        n = rng.randint(1, 10)
        table, fam = random_table(n, rng)
        power = general = table
        for ell in (2, 3, 4):
            power = star_product(n, power, table)
            general = star_product(n, table, general)
            assert power == general, (n, fam, ell)
        assert reduce(partial(star_product, n), [table] * 4) == power
        for w in range(1 << n):
            assert bool(power >> w & 1) == brute_partition_into_family(w, fam, 4)


def test_products_of_tables_holding_the_empty_set_match_disjoint_unions():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(1, 10)
        p, fam_p = random_table(n, rng)
        r, fam_r = random_table(n, rng)
        square = star_product(n, p, p)
        assert set(bit_list(square)) == brute_disjoint_union_masks(fam_p, fam_p)
        mixed = star_product(n, square, r)
        want = brute_disjoint_union_masks(bit_list(square), fam_r)
        assert set(bit_list(mixed)) == want


def test_lack_masks_and_fewer_than_match_their_definitions():
    for n in [*range(9), 12, 3]:  # a small universe after a large one
        lack = lack_masks(n)
        assert len(lack) >= n
        low = (1 << (1 << n)) - 1
        for i in range(n):
            assert lack[i] & low == mask_of(d for d in range(1 << n) if not d >> i & 1)
        for a in range(n + 3):
            want = mask_of(d for d in range(1 << n) if d.bit_count() < a)
            assert fewer_than(n, a) == want, (n, a)


def down_closure(masks):
    """Table of every subset of the given masks, the empty set included."""
    bits = 1
    for m in masks:
        sub = m
        while sub:
            bits |= 1 << sub
            sub = (sub - 1) & m
    return bits


def test_maximal_classes_match_bruteforce():
    rng = random.Random(61)
    graphs = [complete_graph(n) for n in range(1, 10)] + [star_graph(n) for n in range(1, 9)]
    for _ in range(80):
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        k = rng.randint(1, 2)
        isolated = Graph(k, [0] * k)
        graphs += [g, disjoint_union(isolated, g), disjoint_union(g, isolated)]
    for g in graphs:
        assert cover_cuts(g) == cuts_of(brute_family_masks(g), g.n), (g.n, g.adj)
    assert cover_cuts(Graph(0, [])) == []


def test_cover_powers_equal_the_star_powers():
    rng = random.Random(67)
    checked = 0
    for n in range(1, 12):
        for _ in range(12 if n < 9 else 4):
            g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
            cuts = cover_cuts(g)
            cover = cover_power(1, cuts, 0)
            family = star = cover ^ 1
            for a in range(1, n):
                cover = cover_power(cover, cuts, 0)
                star = star_product(n, star, family)
                small = fewer_than(n, a + 1)  # all in D_{a+1}, by singletons
                assert cover & small == small, (n, g.adj, a + 1)
                assert cover & ~small == star, (n, g.adj, a + 1)
                checked += 1
            assert star == reduce(partial(star_product, n), [family] * n)
    assert checked > 400


def assert_cuts_match_their_definition(g):
    """Block u of ``cover_cuts`` lists the cuts M ∩ {0..u-1} of the
    color classes M holding u that no other cut contains, sorted, each
    list ascending, none a prefix of the next."""
    blocks = cover_cuts(g)
    assert blocks == cuts_of(brute_family_masks(g), g.n), (g.n, g.adj)
    for lists in blocks:
        assert lists == sorted(lists)
        assert not any(p == c[: len(p)] for p, c in zip(lists, lists[1:]))
        assert all(c == sorted(c) for c in lists)


def test_cover_cuts_share_prefixes_and_list_every_maximal_cut():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 12)
        assert_cuts_match_their_definition(random_graph(n, rng.random(), rng))


def lifts_pendants_and_twins():
    """Hub lifts of random bases with at most 8 vertices, and random graphs
    with a pendant or a true twin (same closed neighborhood) added."""
    rng = random.Random(97)
    for _ in range(10):
        base = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.4, 0.7]), rng)
        yield generate_from_partization(base, rng.randint(0, 1), rng.randint(1, 2)).graph
        n, top, v = base.n, 1 << base.n, rng.randrange(base.n)
        near = base.closed(v)
        yield Graph(n + 1, [row | (top if u == v else 0) for u, row in enumerate(base.adj)] + [1 << v])
        yield Graph(n + 1, [row | (top if near >> u & 1 else 0) for u, row in enumerate(base.adj)] + [near])


def test_maximal_classes_and_cuts_on_hub_lifts_pendants_and_twins():
    for g in lifts_pendants_and_twins():
        assert_cuts_match_their_definition(g)


def top_vertex_families():
    """D_1 of families, with their universe size and their cuts, whose
    highest vertex is isolated, a pendant, adjacent to every vertex, or
    in every maximal member, next to plain random ones."""
    rng = random.Random(73)
    for _ in range(12):
        base = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.4, 0.7]), rng)
        n, top = base.n, 1 << base.n
        hook = rng.randrange(n)
        pendant = [row | (top if v == hook else 0) for v, row in enumerate(base.adj)]
        universal = [row | top for row in base.adj]
        for g in (
            Graph(n + 1, list(base.adj) + [0]),
            Graph(n + 1, pendant + [1 << hook]),
            Graph(n + 1, universal + [top - 1]),
            random_graph(n + 1, rng.random(), rng),
        ):
            yield g.n, family_of(g), cover_cuts(g)
        masks = random_family_masks(n, rng.randint(1, 5), rng) + [1 << v for v in range(n)]
        masks = [m | top for m in masks]
        yield n + 1, down_closure(masks), cuts_of(masks, n + 1)


def test_cover_power_stops_at_the_lowest_meet():
    met = 0
    for n, family, cuts in top_vertex_families():
        down = family
        for a in range(1, n):
            full = cover_power(down, cuts, 0)
            noise = random.Random(a * n).getrandbits(1 << n)
            for stop in (complement(down, n), noise):
                early = cover_power(down, cuts, stop)
                meet = full & stop & ~1  # the blocks hold the nonempty sets
                if not meet:
                    assert early == full
                    continue
                met += 1
                low = lowest_bit(meet)
                assert lowest_bit(early & stop & ~1) == low
                # the blocks up to the one holding the lowest meet
                assert early == full & ((1 << (1 << low.bit_length())) - 1)
            down = full
    assert met > 100


def test_cover_tables_meet_and_peel_as_the_exact_powers():
    """Up to the first k that meets, D_a meets the complemented D_b in
    the same sets as P_a meets the complemented P_b, for every a + b = k,
    where P_a, the sets that split into exactly a classes, is the star
    power of the family; and the peel splits those sets the same way."""
    rng = random.Random(79)
    for _ in range(60):
        n = rng.randint(1, 11)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
        cuts = cover_cuts(g)
        down, powers = [1], [1]  # D_a and P_a, from D_0 = P_0 = {empty set}
        family = cover_power(1, cuts, 0) ^ 1
        for k in range(n + 1):
            if k:
                down.append(cover_power(down[-1], cuts, 0))
                powers.append(star_product(n, powers[-1], family))
            meets = [powers[a] & complement(powers[k - a], n) for a in range(k + 1)]
            assert meets == [down[a] & complement(down[k - a], n) for a in range(k + 1)]
            if any(meets):
                break
        assert k == cd_chromatic_exact(g)[0], (n, g.adj)
        size = ((1 << n) + 7) // 8
        d_tables = [t.to_bytes(size, "little") for t in down]
        p_tables = [t.to_bytes(size, "little") for t in powers]
        for a, meet in enumerate(meets):
            if meet:
                s = lowest_bit(meet)
                for want, parts in ((s, a), (g.full_mask ^ s, k - a)):
                    got = exact._peel(d_tables, want, parts)
                    assert got == exact._peel(p_tables, want, parts), (n, g.adj, a)


def test_peel_matches_the_walk_over_every_level():
    """``exact._peel`` takes what is left at level 1 at once; it splits each
    set that needs exactly a classes as the walk over every level does:
    the sets of each meet of D_a and the complemented D_b for every split
    a + b = k up to the cd-chromatic number, and sets of D_a outside D_{a-1}."""
    rng = random.Random(101)
    graphs = [random_graph(rng.randint(1, 12), rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
              for _ in range(30)]
    for _ in range(15):
        base = random_graph(rng.randint(1, 7), rng.choice([0.3, 0.6]), rng)
        graphs.append(generate_from_partization(base, 0, rng.randint(1, 2)).graph)
    peeled = 0
    for g in graphs:
        n, q = g.n, cd_chromatic_exact(g)[0]
        cuts = cover_cuts(g)
        down = [1]
        for _ in range(q):
            down.append(cover_power(down[-1], cuts, 0))
        tables = [t.to_bytes(((1 << n) + 7) // 8, "little") for t in down]
        wants = []
        for k in range(q + 1):
            for a in range(k + 1):
                meet = bit_list(down[a] & complement(down[k - a], n))
                assert not meet or k == q, (n, g.adj, k)
                wants += [(s, a) for s in meet[:20]] + [(g.full_mask ^ s, k - a) for s in meet[:20]]
        for a in range(1, q + 1):
            wants += [(s, a) for s in bit_list(down[a] & ~down[a - 1])[:20]]
        for want, parts in wants:
            got = exact._peel(tables, want, parts)
            assert got == peel_every_level(tables, want, parts), (n, g.adj, want, parts)
            peeled += 1
    assert peeled > 1000



def test_half_meet_lacks_the_top_vertex_and_keeps_the_lowest_set():
    """For b >= 1, D_a meets the complemented sets of D_b that hold the top
    vertex, that vertex taken out, in the (n-1)-vertex universe exactly
    when it meets the complemented D_b, and at the same lowest set."""
    rng = random.Random(331)
    met = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
        cuts = cover_cuts(g)
        down = [1]
        for _ in range(cd_chromatic_exact(g)[0]):
            down.append(cover_power(down[-1], cuts, 0))
        for k in range(1, len(down)):
            for a in range(k):
                half = down[a] & complement(down[k - a] >> (1 << (n - 1)), n - 1)
                whole = down[a] & complement(down[k - a], n)
                assert bool(half) == bool(whole), (n, g.adj, a, k)
                assert lowest_bit(half) == lowest_bit(whole), (n, g.adj, a, k)
                met += bool(half)
    assert met > 300


def test_exact_complements_only_half_tables(monkeypatch):
    widths = []

    def recording(bits, n):
        widths.append((bits.bit_length() <= 1 << n, n))
        return complement(bits, n)

    monkeypatch.setattr(exact, "complement", recording)
    rng = random.Random(7)
    for n in (2, 5, 9, 13):
        widths.clear()
        g = random_connected_graph(n, 0.3, rng)
        merged = len(set(g.adj))  # one vertex per distinct open neighborhood
        cd_chromatic_exact(g)
        assert widths and set(widths) == {(True, merged - 1)}, (n, merged, widths)


KNOWN_VALUES = [
    (cycle_graph(4), 2),
    (cycle_graph(5), 3),
    (cycle_graph(6), 4),
    (petersen_graph(), 4),
    (complete_graph(1), 1),
    (complete_graph(2), 2),
    (complete_graph(3), 3),
    (complete_graph(4), 4),
    (complete_graph(5), 5),
    (complete_graph(6), 6),
    (path_graph(2), 2),
    (path_graph(3), 2),
    (path_graph(4), 2),
    (path_graph(5), 3),
    (path_graph(6), 4),
    (cycle_graph(3), 3),
    (cycle_graph(7), 4),
    (cycle_graph(8), 4),
    (star_graph(3), 2),
    (complete_graph(7), 7),
    (complete_graph(8), 8),
    (complete_graph(9), 9),
]


@pytest.mark.parametrize("g,expected", KNOWN_VALUES)
def test_named_values(g, expected):
    q_brute, wit_brute = cd_chromatic_bruteforce(g, cap=10)
    q_exact, wit_exact = cd_chromatic_exact(g)
    assert q_brute == expected
    assert q_exact == expected
    assert validate_cd_coloring(g, wit_brute).ok
    assert validate_cd_coloring(g, wit_exact).ok


@pytest.mark.parametrize("g,q", [(complete_graph(7), 7), (cycle_graph(6), 4)])
def test_meet_in_the_middle_product_count(monkeypatch, g, q):
    calls = []

    def counting(down, cuts, stop):
        calls.append(1)
        return cover_power(down, cuts, stop)

    monkeypatch.setattr(exact, "cover_power", counting)
    assert cd_chromatic_exact(g)[0] == q
    assert len(calls) == (q + 1) // 2  # the family is the first call


def test_bruteforce_examples():
    assert cd_chromatic_bruteforce(complete_graph(3))[0] == 3
    assert cd_chromatic_bruteforce(path_graph(4))[0] == 2
    assert cd_chromatic_bruteforce(cycle_graph(6))[0] == 4


def test_exact_matches_bruteforce_random():
    rng = random.Random(37)
    for _ in range(120):
        g = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8]), rng)
        q_exact, wit = cd_chromatic_exact(g)
        q_brute, _ = cd_chromatic_bruteforce(g)
        assert q_exact == q_brute
        report = validate_cd_coloring(g, wit)
        assert report.ok, report.problem


def test_additivity_over_components():
    rng = random.Random(41)
    for _ in range(30):
        g1 = random_graph(rng.randint(1, 4), 0.5, rng)
        g2 = random_graph(rng.randint(1, 4), 0.5, rng)
        both = disjoint_union(g1, g2)
        q, wit = cd_chromatic_exact(both)
        assert q == cd_chromatic_exact(g1)[0] + cd_chromatic_exact(g2)[0]
        assert q == cd_chromatic_bruteforce(both)[0]
        assert validate_cd_coloring(both, wit).ok
    assert solve_per_component(Graph(0, []), cd_chromatic_exact) == (
        0,
        CdColoring((), ()),
    )


def test_witness_dominators_form_dominating_set():
    rng = random.Random(43)
    for _ in range(40):
        g = random_graph(rng.randint(1, 8), rng.choice([0.3, 0.6]), rng)
        q, wit = cd_chromatic_exact(g)
        assert len(wit.dominators) == q
        dom = mask_of(wit.dominators)
        assert all(g.closed(v) & dom for v in range(g.n))


def test_exact_deterministic_witness():
    g = random_graph(7, 0.5, random.Random(47))
    assert cd_chromatic_exact(g) == cd_chromatic_exact(g)


def test_validate_rejects_bad_colorings():
    k3 = complete_graph(3)
    improper = CdColoring(((0, 1), (2,)), (2, 0))
    report = validate_cd_coloring(k3, improper)
    assert not report.ok and "edge" in report.problem

    c6 = cycle_graph(6)
    undominated = CdColoring(((0, 2, 4), (1, 3, 5)), (1, 0))
    report = validate_cd_coloring(c6, undominated)
    assert not report.ok and "dominated" in report.problem

    p3 = path_graph(3)
    ok = validate_cd_coloring(p3, CdColoring(((0, 2), (1,)), (1, 0)))
    assert ok.ok

    missing = validate_cd_coloring(p3, CdColoring(((0, 2),), (1,)))
    assert not missing.ok and "uncolored" in missing.problem

    doubled = validate_cd_coloring(
        p3, CdColoring(((0, 2), (1, 0)), (1, 0))
    )
    assert not doubled.ok and "twice" in doubled.problem


def test_validate_c4_example():
    c4 = cycle_graph(4)
    assert validate_cd_coloring(c4, CdColoring(((0, 2), (1, 3)), (1, 0))).ok


# SHA-256 of repr([cd_chromatic_exact(g) for p in (0.2, 0.5)]) on
# random_connected_graph(n, p, Random(n)), taken from the engine that
# multiplied every weight pair over the full table width.
EXACT_DIGESTS = {
    16: "6c627bc630dfe8b01be4da685a1537a0cf0004c2352fe688169592f6ae50d78c",
    17: "8d724f51718ad1beb7d48b3af07b5aef77285dc95ec6e33147aaa3970fb300b9",
    18: "53c576a071b014065596243a75fbd75d3ed927a595bd89b7ac0005091a1fd066",
    19: "037b53b4a0e677b6a378d4bd4e36775f7144cff413503f57963ec018dc65d4e0",
    20: "69bfd89b0f4e7c4e28d12df486355a370b4f6a30d8506f8728831dae01398aeb",
}


@pytest.mark.parametrize("n", sorted(EXACT_DIGESTS))
def test_exact_answers_are_pinned(n):
    rng = random.Random(n)
    answers = [cd_chromatic_exact(random_connected_graph(n, p, rng)) for p in (0.2, 0.5)]
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == EXACT_DIGESTS[n]


# SHA-256 of repr([cd_chromatic_exact(lift) for p in (0.3, 0.6)]), where
# lift is generate_from_partization(random_graph(n, p, Random(n)), 2, 2)
# (one hub, n + 7 vertices), taken from the engine that built each power
# by disjoint-union products.
HUB_LIFT_DIGESTS = {
    9: "33b52b457ce342b773635778273598c0233f7eacde58bee49e8f0811b006f8b5",
    10: "ce5cd6097c7654afff93be09aec9c7fa928d7dd1bfb2eb97b1dd857fb968075b",
    11: "2d2a55957680f8c29ae68dd19fdffad2dce6c162f01745b6875d5dcfb98f7550",
    12: "e89df0338f640e023fcf1f7acba2a6cb1512f509751e995565067b07d008c721",
}


@pytest.mark.parametrize("n", sorted(HUB_LIFT_DIGESTS))
def test_hub_lift_answers_are_pinned(n):
    rng = random.Random(n)
    answers = [
        cd_chromatic_exact(generate_from_partization(random_graph(n, p, rng), 2, 2).graph)
        for p in (0.3, 0.6)
    ]
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == HUB_LIFT_DIGESTS[n]


# SHA-256 of repr(cd_chromatic_exact(random_graph(24, 0.5, Random(seed)))),
# taken from the engine that closed each power over full-width tables in
# one prefix tree of maximal members.
N24_DIGESTS = {
    1: "326626ad255f4602061cdaa3b20ca4416acbd10731255430e4e0d7ef022cc2b1",
    2: "c632101929446d417a91fc5da9439f0dfaedbacb26f2428d1c6095ceee5c13e3",
}


@pytest.mark.parametrize("seed", sorted(N24_DIGESTS))
def test_n24_answers_are_pinned(seed):
    answer = cd_chromatic_exact(random_graph(24, 0.5, random.Random(seed)))
    assert hashlib.sha256(repr(answer).encode()).hexdigest() == N24_DIGESTS[seed]

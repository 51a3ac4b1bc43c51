"""A subproblem given as a vertex mask answers exactly as the induced copy.

Every mask-taking routine is run twice: on ``g`` with an ``active`` mask,
and on ``g.induced(active)`` with its answer mapped back to ``g``'s ids.
"""

import random

import pytest

from cdcolor.bits import iter_bits, mask_of
from cdcolor.coloring import CdColoring, validate_cd_coloring
from cdcolor.errors import PreconditionError
from cdcolor.exact import cd_chromatic_exact
from cdcolor.fpt import (
    oct_excluding,
    oct_with_forced_sides,
    odd_cycle_transversal,
    vertex_cover,
)
from cdcolor.generate import disjoint_union, random_connected_graph, random_graph
from cdcolor.partize import _TYPE_SOLVERS, cd_recognize_upto3


def random_instances(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng.randint(2, 10), rng.choice([0.3, 0.5, 0.7]), rng)
        active = rng.getrandbits(g.n) | (1 << rng.randrange(g.n))
        yield rng, g, active


def back(ids, mask):
    return mask_of(ids[v] for v in iter_bits(mask))


def local(ids, mask):
    pos = {old: new for new, old in enumerate(ids)}
    return mask_of(pos[v] for v in iter_bits(mask))


def mapped_witness(ids, w):
    return w.type_id, tuple(ids[d] for d in w.dominators), w.coloring.relabeled(ids)


def witness_key(w):
    return w.type_id, w.dominators, w.coloring


def solution_key(sol, ids=None):
    if sol is None:
        return None
    if ids is None:
        return sol.deleted, [(n, witness_key(w)) for n, w in sol.plan], sol.coloring
    plan = [(name, mapped_witness(ids, w)) for name, w in sol.plan]
    return back(ids, sol.deleted), plan, sol.coloring.relabeled(ids)


def test_vertex_cover_and_oct_on_masks():
    for rng, g, active in random_instances(150, 71):
        sub, ids = g.induced(active)
        k = rng.randint(0, 4)
        vc = vertex_cover(sub, k)
        assert vertex_cover(g, k, active) == (None if vc is None else back(ids, vc))
        found = odd_cycle_transversal(sub, k)
        assert odd_cycle_transversal(g, k, active) == (
            None if found is None else back(ids, found)
        )
        v = rng.choice(ids)
        found = oct_excluding(sub, ids.index(v), k)
        assert oct_excluding(g, v, k, active) == (
            None if found is None else back(ids, found)
        )


def test_oct_with_forced_sides_on_masks():
    for rng, g, active in random_instances(150, 72):
        sub, ids = g.induced(active)
        k = rng.randint(0, 3)
        p = q = 0
        for v in ids:
            side = rng.randrange(3)
            p |= (side == 1) << v
            q |= (side == 2) << v
        z = rng.choice(ids + [None])
        got = oct_with_forced_sides(g, p, q, z, k, active)
        res = oct_with_forced_sides(
            sub, local(ids, p), local(ids, q), None if z is None else ids.index(z), k
        )
        if res is None:
            assert got is None
        else:
            found, (a, b) = res
            assert got == (back(ids, found), (back(ids, a), back(ids, b)))


@pytest.mark.parametrize("t", range(1, 6))
def test_type_matchers_on_masks(t):
    solver = _TYPE_SOLVERS[t - 1]
    for _, g, active in random_instances(40, 73 + t):
        sub, ids = g.induced(active)
        for k in range(3):
            assert solution_key(solver(g, k, active)) == solution_key(
                solver(sub, k), ids
            )


def test_recognition_on_masks_of_disjoint_unions():
    rng = random.Random(74)
    for _ in range(60):
        parts = [
            random_connected_graph(rng.randint(1, 6), rng.choice([0.4, 0.7]), rng)
            for _ in range(rng.randint(1, 3))
        ]
        g = disjoint_union(*parts)
        active = rng.getrandbits(g.n) | rng.getrandbits(g.n)
        sub, ids = g.induced(active)
        got = cd_recognize_upto3(g, active)
        want = cd_recognize_upto3(sub)
        if want is None:
            assert got is None
            continue
        assert got.q == want.q
        assert [(c, witness_key(w)) for c, w in got.components] == [
            (back(ids, c), mapped_witness(ids, w)) for c, w in want.components
        ]


def tampered(rng, coloring, n):
    """The coloring, or it with one vertex added, dominator moved or
    vertex dropped; the changed vertex may lie outside the mask."""
    classes = [list(cls) for cls in coloring.classes]
    doms = list(coloring.dominators)
    i = rng.randrange(len(classes))
    move = rng.randrange(4)
    if move == 1:
        classes[i].append(rng.randrange(n))
    elif move == 2:
        doms[i] = rng.randrange(n)
    elif move == 3:
        classes[i].pop(rng.randrange(len(classes[i])))
    return CdColoring(tuple(map(tuple, classes)), tuple(doms))


def test_validation_on_masks():
    valid = 0
    for rng, g, active in random_instances(300, 76):
        sub, ids = g.induced(active)
        coloring = tampered(rng, cd_chromatic_exact(sub)[1].relabeled(ids), g.n)
        pos = {old: new for new, old in enumerate(ids)}
        # a vertex outside the mask becomes an out-of-range id of the copy
        copy = CdColoring(
            tuple(tuple(pos.get(v, sub.n) for v in cls) for cls in coloring.classes),
            tuple(pos.get(d, sub.n) for d in coloring.dominators),
        )
        got = validate_cd_coloring(g, coloring, active)
        assert got.ok == validate_cd_coloring(sub, copy).ok
        valid += got.ok
    assert 0 < valid < 300


def test_excluded_vertex_outside_active_is_rejected():
    rng = random.Random(75)
    g = random_graph(6, 0.5, rng)
    active = 0b011110
    for v in (0, 5):
        with pytest.raises(PreconditionError):
            oct_excluding(g, v, 2, active)
        with pytest.raises(PreconditionError):
            oct_with_forced_sides(g, 0, 0, v, 2, active)

import itertools
from math import comb

import pytest

from opdual.fields import QQ, F2
from opdual.chain import ChainMap, tensor_many, tensor_map_many
from opdual.trees import (
    ROOT, Tree, canonical_form, corolla, enumerate_trees, graft,
)
from opdual.cubes import (
    STAR, delta_cube, wbar, rel_delta, wbar_family, face_inclusion,
    family_inclusion, graft_decompose, theta_cells,
)

BIN3 = canonical_form([[1, 2], 3])
BIN4 = canonical_form([[[1, 2], 3], 4])


def test_delta_cube_census():
    assert delta_cube(QQ, corolla(5)).dims() == {0: 1}
    assert delta_cube(QQ, BIN3).dims() == {0: 2, 1: 1}
    assert delta_cube(QQ, BIN4).dims() == {0: 4, 1: 4, 2: 1}
    for t in enumerate_trees(4):
        e = t.num_edges
        dims = delta_cube(QQ, t).dims()
        assert dims == {j: comb(e, j) * 2 ** (e - j) for j in range(e + 1)}
        assert delta_cube(QQ, t).homology_table() == {0: 1}


def test_wbar_census():
    assert wbar(QQ, Tree(1, [])).dims() == {0: 1}
    assert wbar(QQ, corolla(4)).dims() == {1: 1}
    assert wbar(QQ, BIN3).dims() == {1: 1, 2: 1}
    assert wbar(QQ, BIN4).dims() == {1: 1, 2: 2, 3: 1}
    # d of the top cell hits the single face with the internal edge at 0
    top = (STAR, frozenset({1, 2}))  # not a label; recompute from basis
    w = wbar(QQ, BIN3)
    (top,) = w.basis[2]
    assert list(w.boundary_of(top)) == [(STAR, 0)]


def test_wbar_homology():
    for n in (2, 3, 4):
        for t in enumerate_trees(n):
            h = wbar(QQ, t).homology_table()
            if t.is_corolla():
                assert h == {1: 1}
            else:
                assert h == {}
            if t.num_edges >= 1:
                w = wbar(QQ, t)
                assert sum((-1) ** k * w.dim(k) for k in w.degrees()) == 0


def test_rel_delta():
    assert rel_delta(QQ, BIN3, BIN3).dims() == {0: 1}
    assert rel_delta(QQ, BIN3, corolla(3)).dims() == {0: 2, 1: 1}
    assert rel_delta(QQ, BIN4, corolla(4)).dims() == {0: 4, 1: 4, 2: 1}
    with pytest.raises(ValueError):
        rel_delta(QQ, corolla(3), BIN3)


def test_wbar_family():
    for t in enumerate_trees(3):
        assert wbar_family(QQ, t, corolla(3)).dims() == wbar(QQ, t).dims()
        assert wbar_family(QQ, t, t).dims() == {t.num_vertices: 1}
    assert wbar_family(QQ, corolla(3), BIN3).total_dim() == 0


def test_face_inclusion_wbar_example():
    f = face_inclusion(QQ, "wbar", corolla(3), BIN3)
    assert f.apply(1, {(STAR,): 1}) == {(STAR, 0): 1}
    with pytest.raises(ValueError):
        face_inclusion(QQ, "wbar", BIN3, corolla(3))


def test_face_inclusion_functorial():
    cat = canonical_form([[[1, 2], 3], 4])
    mid = canonical_form([[1, 2, 3], 4])
    bot = corolla(4)
    for kind in ("delta", "wbar"):
        f1 = face_inclusion(QQ, kind, bot, mid)
        f2 = face_inclusion(QQ, kind, mid, cat)
        assert f1.then(f2) == face_inclusion(QQ, kind, bot, cat)


def test_rel_delta_inclusions_commute():
    # j o i = i o j on the square (t' <= t <= u <= u')
    t2, t, u, u2 = corolla(4), canonical_form([[1, 2, 3], 4]), \
        canonical_form([[1, 2, 3], 4]), BIN4
    i1 = face_inclusion(QQ, "i", (u, t), (u2, t))
    j1 = face_inclusion(QQ, "j", (u2, t), (u2, t2))
    j2 = face_inclusion(QQ, "j", (u, t), (u, t2))
    i2 = face_inclusion(QQ, "i", (u, t2), (u2, t2))
    assert i1.then(j1) == j2.then(i2)


def test_graft_decompose_chain_maps():
    # construction asserts the chain-map law; spot-check the examples
    nu, mu = graft_decompose(QQ, corolla(2), 1, corolla(2))
    v = graft(corolla(2), 1, corolla(2))
    assert v == BIN3
    wv = wbar(QQ, v)
    (top,) = wv.basis[2]
    out = nu.apply(2, {top: 1})
    assert len(out) == 1
    ((ct, cu),) = out
    assert ct == (STAR,) and cu == (STAR,)
    # mu sends the pair of points to the new-edge-at-1 vertex
    out = mu.apply(0, {((), ()): 1})
    assert out == {(1,): 1}


def test_nu_associative():
    # two bracketings of the 4-leaf caterpillar agree after reassociating
    t2 = corolla(2)
    mid = graft(t2, 1, t2)          # ((1 2) 3)
    cat = graft(t2, 1, mid)         # (((1 2) 3) 4)
    assert cat == canonical_form([[[1, 2], 3], 4])
    nu_outer, _ = graft_decompose(QQ, t2, 1, mid)
    nu_inner, _ = graft_decompose(QQ, t2, 1, t2)
    w2 = wbar(QQ, t2)
    triple = tensor_many(QQ, [w2, w2, w2])
    step1 = tensor_map_many(QQ, [ChainMap.identity(w2), nu_inner],
                            source=nu_outer.target)
    flat1 = ChainMap.from_rule(
        step1.target, triple, lambda d, l: [((l[0],) + l[1], 1)])
    first = nu_outer.then(step1).then(flat1)
    # other bracketing: cat = graft(mid, 1, t2)
    assert graft(mid, 1, t2) == cat
    nu_outer2, _ = graft_decompose(QQ, mid, 1, t2)
    nu_mid, _ = graft_decompose(QQ, t2, 1, t2)
    step2 = tensor_map_many(QQ, [nu_mid, ChainMap.identity(w2)],
                            source=nu_outer2.target)
    flat2 = ChainMap.from_rule(
        step2.target, triple, lambda d, l: [(l[0] + (l[1],), 1)])
    second = nu_outer2.then(step2).then(flat2)
    assert first == second


def test_theta_corolla_target():
    for n in (2, 3):
        th = theta_cells(QQ, corolla(n), corolla(n))
        src = th.source
        (cell,) = src.basis[1]
        assert th.apply(1, {cell: 1}) == {((STAR,),): -1}


def test_theta_zero_when_not_below():
    th = theta_cells(QQ, corolla(3), BIN3)
    assert th.is_zero()
    assert th.target.total_dim() == 0


def test_theta_surjective_onto_top():
    # every tree pair u <= t with arity <= 4 builds without violating the
    # chain-map law (asserted at construction) and is nonzero
    for n in (2, 3, 4):
        for t in enumerate_trees(n):
            for u in enumerate_trees(n):
                th = theta_cells(QQ, t, u)
                if u.leq(t):
                    assert not th.is_zero()
                else:
                    assert th.is_zero()


def test_theta_natural_in_t():
    for n in (3, 4):
        for t in enumerate_trees(n):
            for t2 in enumerate_trees(n):
                if not t.leq(t2):
                    continue
                for u in enumerate_trees(n):
                    if not u.leq(t):
                        continue
                    iota = face_inclusion(QQ, "delta", t, t2)
                    lift = tensor_map_many(
                        QQ, [iota, ChainMap.identity(wbar(QQ, u))],
                        source=theta_cells(QQ, t, u).source,
                        target=theta_cells(QQ, t2, u).source)
                    lhs = lift.then(theta_cells(QQ, t2, u))
                    rhs = theta_cells(QQ, t, u).then(family_inclusion(QQ, t, t2, u))
                    assert lhs == rhs


def test_theta_f2():
    for t in enumerate_trees(3):
        for u in enumerate_trees(3):
            theta_cells(F2, t, u)   # chain-map law asserted mod 2

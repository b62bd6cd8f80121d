import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from opdual.fields import QQ, F2, Field
from opdual.linalg import Matrix
from opdual import chain as ch
from opdual.chain import (
    ChainComplex, ChainMap, k_complex, zero_complex, direct_sum,
    tensor_many, tensor_map_many, shift, linear_dual, dual_map, cone,
    is_quasi_iso, hom_complex, hom_map, kernel_complex, cokernel_complex,
    koszul_sign,
)


def interval(field) -> ChainComplex:
    """The interval H: g0, g1 in degree 0, g in degree 1, d(g) = g1 - g0."""
    return ChainComplex.from_rule(
        field, {0: ["g0", "g1"], 1: ["g"]},
        lambda d, l: [("g1", 1), ("g0", -1)] if l == "g" else [])


def permute_factors(field, factors, perm, source, target) -> ChainMap:
    """The chain iso source = tensor(factors) -> target reordering the
    factors, perm[i] the target slot of factor i, with Koszul signs."""
    fdeg = [f.label_degree for f in factors]
    return ChainMap.from_rule(source, target, lambda d, tup: [ch._place(
        tup, [fdeg[i][l] for i, l in enumerate(tup)], perm)])


def hom_elem_to_map(vec: dict, a: ChainComplex, b: ChainComplex,
                    degree: int) -> ChainMap:
    """A degree-`degree` element of hom_complex(a, b) (label-keyed
    vector) as a ChainMap; valid iff the element is a cycle."""
    table = {}
    for (_, la, lb), c in vec.items():
        table.setdefault(la, []).append((lb, c))
    return ChainMap.from_rule(a, b, lambda d, l: table.get(l, ()),
                              degree=degree)


def map_to_hom_elem(f: ChainMap) -> dict:
    """Inverse of hom_elem_to_map on chain maps."""
    vec = {}
    for k in f.source.degrees():
        src_labels = f.source.basis[k]
        tgt_labels = f.target.basis.get(k + f.degree, ())
        for (i, j), v in f.matrix(k).data.items():
            vec[("h", src_labels[j], tgt_labels[i])] = v
    return vec


def random_complex(rng, field, degs=(-1, 0, 1, 2), maxdim=3, tag="x"):
    """Random small complex: a direct sum of shifted intervals and points.

    Every bounded complex over a field decomposes this way, so nothing is
    lost by sampling in this form.
    """
    pieces = []
    for i in range(rng.randint(1, 4)):
        s = rng.choice(degs)
        if rng.random() < 0.5:
            pieces.append((f"{tag}i{i}", shift(interval(field), s)))
        else:
            pieces.append((f"{tag}k{i}", k_complex(field, s, f"{tag}g{i}")))
    return direct_sum(field, pieces)


def random_chain_map(rng, field, a, b):
    """A random degree-0 chain map a -> b: a random sum of a basis of the
    cycles of hom(a, b) in degree 0."""
    h = hom_complex(a, b)
    labels = h.basis.get(0, ())
    vec = {}
    for z in h.d_matrix(0).nullspace():
        c = field.of(rng.randint(-2, 2))
        for i, v in z.items():
            vec[labels[i]] = field.add(vec.get(labels[i], field.zero),
                                       field.mul(c, v))
    vec = {l: v for l, v in vec.items() if v != field.zero}
    return hom_elem_to_map(vec, a, b, 0)


def test_interval():
    h = interval(QQ)
    assert h.dims() == {0: 2, 1: 1}
    assert h.boundary_of("g") == {"g1": Fraction(1), "g0": Fraction(-1)}
    assert h.homology_table() == {0: 1}


def test_d_squared_rejected():
    m1 = Matrix(QQ, 1, 1, {(0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        ChainComplex(QQ, {0: ["a"], 1: ["b"], 2: ["c"]},
                     {1: m1, 2: m1})


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        ChainComplex(QQ, {0: ["a"], 1: ["a"]}, {})


def test_direct_sum():
    a, b = interval(QQ), shift(interval(QQ), 1)
    c = direct_sum(QQ, [("a", a), ("b", b)])
    assert c.basis == {0: (("a", "g0"), ("a", "g1")),
                       1: (("a", "g"), ("b", "g0"), ("b", "g1")),
                       2: (("b", "g"),)}
    # block diagonal: each summand's boundary, inside its own tag
    for tag, x in (("a", a), ("b", b)):
        for l in x.label_degree:
            assert c.boundary_of((tag, l)) == {
                (tag, l2): v for l2, v in x.boundary_of(l).items()}
    assert direct_sum(QQ, []) == zero_complex(QQ)


def test_tensor():
    h = interval(QQ)
    hh = tensor_many(QQ, [h, h])
    assert hh.dims() == {0: 4, 1: 4, 2: 1}
    # Koszul rule on the top cell
    d = hh.boundary_of(("g", "g"))
    assert d == {("g1", "g"): Fraction(1), ("g0", "g"): Fraction(-1),
                 ("g", "g1"): Fraction(-1), ("g", "g0"): Fraction(1)}
    assert hh.homology_table() == {0: 1}
    # empty tensor is the unit
    unit = tensor_many(QQ, [])
    assert unit.dims() == {0: 1}


def test_tensor_associator_and_symmetry():
    rng = random.Random(2)
    for _ in range(5):
        a = random_complex(rng, QQ, tag="a")
        b = random_complex(rng, QQ, tag="b")
        ab = tensor_many(QQ, [a, b])
        ba = tensor_many(QQ, [b, a])
        sym = permute_factors(QQ, [a, b], [1, 0], ab, ba)
        assert sym.is_iso()
        back = permute_factors(QQ, [b, a], [1, 0], ba, ab)
        assert sym.then(back) == ChainMap.identity(ab)


def test_tensor_of_maps():
    h = interval(QQ)
    pt = k_complex(QQ, 0, "p")
    # collapse H -> point is a chain map; its square under tensor too
    col = ChainMap.from_rule(h, pt, lambda d, l: [("p", 1)] if d == 0 else [])
    t = tensor_map_many(QQ, [col, col])
    assert t.source.dims() == {0: 4, 1: 4, 2: 1}
    assert is_quasi_iso(t)


def test_shift():
    a = k_complex(QQ, 0)
    assert shift(a, 1).dims() == {1: 1}
    h = interval(QQ)
    assert shift(shift(h, 1), -1) == h
    assert shift(h, 3).homology_table() == {3: 1}
    # shift negates the differential an odd number of times
    assert shift(h, 1).d_matrix(2) == h.d_matrix(1).scale(Fraction(-1))


def test_verify_scales_only_for_an_odd_degree(monkeypatch):
    # f d = (-1)^s d f: a degree-0 map compares the two products as they
    # are; a degree-1 map negates d f, so one off by that sign fails
    h = interval(QQ)
    sh = shift(h, 1)
    real, scales = Matrix.scale, []

    def counted(m, c):
        scales.append(c)
        return real(m, c)

    monkeypatch.setattr(Matrix, "scale", counted)
    ChainMap.from_rule(h, h, lambda d, l: [(l, 1)])
    assert scales == []
    ChainMap.from_rule(h, sh, lambda d, l: [(l, 1)], degree=1)
    assert scales
    with pytest.raises(ValueError, match="chain-map law"):
        ChainMap.from_rule(h, sh, lambda d, l: [(l, -1 if l == "g" else 1)],
                           degree=1)


def test_dual():
    assert linear_dual(k_complex(QQ, 2)).dims() == {-2: 1}
    h = interval(QQ)
    dh = linear_dual(h)
    assert dh.dims() == {0: 2, -1: 1}
    assert dh.homology_table() == {0: 1}
    # double dual is the complex itself, on the nose, and the canonical
    # iso has identity matrices
    rng = random.Random(4)
    for _ in range(5):
        a = random_complex(rng, QQ)
        dd = linear_dual(linear_dual(a))
        assert dd.diff == a.diff
        iso = ChainMap.from_rule(
            a, dd, lambda d, l: [(("dual", ("dual", l)), 1)])
        assert iso.is_iso()
        for k in a.degrees():
            assert iso.matrix(k) == Matrix.identity(QQ, a.dim(k))


def test_dual_map_and_pairing():
    rng = random.Random(8)
    h = interval(QQ)
    inc = ChainMap.from_rule(k_complex(QQ, 0, "e"), h,
                             lambda d, l: [("g1", 1)])
    dinc = dual_map(inc)
    assert dinc.source.dims() == {0: 2, -1: 1}
    assert is_quasi_iso(dinc)
    for _ in range(4):
        a = random_complex(rng, QQ, tag="a")
        b = random_complex(rng, QQ, tag="b")
        # dual(a) (x) dual(b) -> dual(a (x) b) is sign-free
        pair = ChainMap.from_rule(
            tensor_many(QQ, [linear_dual(a), linear_dual(b)]),
            linear_dual(tensor_many(QQ, [a, b])),
            lambda d, tup: [(("dual", (tup[0][1], tup[1][1])), 1)])
        assert pair.is_iso()


def test_cone_and_quasi_iso():
    h = interval(QQ)
    assert is_quasi_iso(ChainMap.identity(h))
    z = ChainMap.zero(k_complex(QQ, 0, "a"), k_complex(QQ, 0, "b"))
    assert not is_quasi_iso(z)
    inc = ChainMap.from_rule(k_complex(QQ, 0, "e"), h,
                             lambda d, l: [("g1", 1)])
    assert is_quasi_iso(inc)
    # cone of identity on k: dims 1 in degrees 0,1, acyclic
    c = cone(ChainMap.identity(k_complex(QQ, 0)))
    assert c.dims() == {0: 1, 1: 1}
    assert not c.homology_table()


def test_homology_table_examples():
    # 0 -> k ->(1) k -> 0
    m = Matrix(QQ, 1, 1, {(0, 0): Fraction(1)})
    c = ChainComplex(QQ, {0: ["a"], 1: ["b"]}, {1: m})
    assert c.homology_table() == {}
    # dims (2:3, 1:1) with rank-1 differential -> {2: 2}
    m2 = Matrix(QQ, 1, 3, {(0, 0): Fraction(1)})
    c2 = ChainComplex(QQ, {1: ["x"], 2: ["y0", "y1", "y2"]}, {2: m2})
    assert c2.homology_table() == {2: 2}
    assert sum((-1) ** k * c2.dim(k) for k in c2.degrees()) == 3 - 1
    assert sum((-1) ** k * v for k, v in c2.homology_table().items()) == 2


def test_hom_complex_cycles_are_chain_maps():
    rng = random.Random(13)
    for _ in range(6):
        a = random_complex(rng, QQ, tag="a")
        b = random_complex(rng, QQ, tag="b")
        hom = hom_complex(a, b)
        assert hom.total_dim() == sum(
            a.dim(i) * b.dim(j) for i in a.degrees() for j in b.degrees())
        # a cycle of degree 0 is a chain map; identity is a cycle
        ida = map_to_hom_elem(ChainMap.identity(a))
        homaa = hom_complex(a, a)
        # apply hom differential to the identity element: must vanish
        out = {}
        for lab, c in ida.items():
            k = homaa.label_degree[lab]
            for l2, v in homaa.boundary_of(lab).items():
                out[l2] = QQ.add(out.get(l2, QQ.zero), QQ.mul(c, v))
        assert all(v == 0 for v in out.values())
        # round trip elem <-> map
        f = hom_elem_to_map(ida, a, a, 0)
        assert f == ChainMap.identity(a)


def test_hom_pre_post_compose_are_chain_maps():
    h = interval(QQ)
    pt = k_complex(QQ, 0, "p")
    col = ChainMap.from_rule(h, pt, lambda d, l: [("p", 1)] if d == 0 else [])
    inc = ChainMap.from_rule(pt, h, lambda d, l: [("g1", 1)])
    homhh = hom_complex(h, h)
    # each build verifies the chain-map law
    hom_map(homhh, hom_complex(h, pt), post=col)
    hom_map(homhh, hom_complex(pt, h), pre=inc)
    both = hom_map(homhh, hom_complex(pt, pt), pre=inc, post=col)
    # f -> col f inc sends the identity of h to col inc, the identity of pt
    assert both.apply(0, map_to_hom_elem(ChainMap.identity(h))) == {
        ("h", "p", "p"): 1}


def hom_tensor_interchange(homab, homcd, a, b, c, d) -> ChainMap:
    """hom(A,B) (x) hom(C,D) -> hom(A(x)C, B(x)D), the map realizing
    (f (x) g)(x (x) y) = (-1)^{|g||x|} f(x) (x) g(y): the whole map that
    the grafting of ends reads one label at a time."""
    field = a.field
    src = tensor_many(field, [homab, homcd])
    target = hom_complex(tensor_many(field, [a, c]), tensor_many(field, [b, d]))

    def rule(s, tup):
        (_, la, lb), (_, lc, ld) = tup
        g_deg = d.label_degree[ld] - c.label_degree[lc]
        x_deg = a.label_degree[la]
        sign = -1 if (g_deg * x_deg) % 2 == 1 else 1
        return [(("h", (la, lc), (lb, ld)), sign)]

    return ChainMap.from_rule(src, target, rule)


def test_hom_tensor_interchange_chain_map():
    rng = random.Random(21)
    a = random_complex(rng, QQ, tag="a")
    b = random_complex(rng, QQ, tag="b")
    c = random_complex(rng, QQ, tag="c")
    d = random_complex(rng, QQ, tag="d")
    m = hom_tensor_interchange(hom_complex(a, b), hom_complex(c, d), a, b, c, d)
    assert m.is_iso()


def test_kernel_cokernel():
    # f = 0: kernel = source, cokernel = target
    a = interval(QQ)
    b = shift(interval(QQ), 1)
    z = ChainMap.zero(a, b)
    ker, _, _ = kernel_complex(z)
    cok, _, _ = cokernel_complex(z)
    assert ker.dims() == a.dims()
    assert cok.dims() == b.dims()
    # f = id: both vanish
    ker, _, _ = kernel_complex(ChainMap.identity(a))
    cok, _, _ = cokernel_complex(ChainMap.identity(a))
    assert ker.dims() == {}
    assert cok.dims() == {}
    # f: k^2 -> k, (x,y) -> x - y
    src = ChainComplex(QQ, {0: ["x", "y"]}, {})
    tgt = k_complex(QQ, 0, "z")
    f = ChainMap.from_rule(src, tgt,
                           lambda d, l: [("z", 1 if l == "x" else -1)])
    ker, _, _ = kernel_complex(f)
    cok, _, _ = cokernel_complex(f)
    assert ker.dims() == {0: 1}
    assert cok.dims() == {}


@pytest.mark.parametrize("field", [QQ, F2, Field(3)], ids=["q", "f2", "f3"])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_retraction_inverts_the_inclusion(field, seed):
    # retr reads each kernel vector at the largest index of its support,
    # where every other kernel vector is 0
    rng = random.Random(seed)
    a = random_complex(rng, field, tag="a")
    b = random_complex(rng, field, tag="b")
    ker, incl, retr = kernel_complex(random_chain_map(rng, field, a, b))
    assert set(retr) == set(ker.degrees())
    for k in ker.degrees():
        assert retr[k] @ incl.matrix(k) == Matrix.identity(field, ker.dim(k))


@pytest.mark.parametrize("field", [QQ, F2, Field(3)], ids=["q", "f2", "f3"])
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_cokernel_section_and_representatives(field, seed):
    # the label ("cok", k, l) of a class names a target label l of degree
    # k that proj sends to that class alone: bbar reads representatives
    # off these labels
    rng = random.Random(seed)
    a = random_complex(rng, field, tag="a")
    b = random_complex(rng, field, tag="b")
    f = random_chain_map(rng, field, a, b)
    cok, proj, sect = cokernel_complex(f)
    assert f.then(proj).is_zero()
    assert set(sect) == set(cok.degrees())
    for k in b.degrees():
        assert cok.dim(k) == b.dim(k) - f.matrix(k).rank()
    for k in cok.degrees():
        assert proj.matrix(k) @ sect[k] == Matrix.identity(field, cok.dim(k))
        for label in cok.basis[k]:
            tag, k2, l = label
            assert (tag, k2) == ("cok", k) and b.label_degree[l] == k
            assert proj.image(l) == {label: field.one}


def test_kernel_cokernel_with_differentials():
    # kernel/cokernel of the collapse H -> k[0] carry induced boundaries
    h = interval(QQ)
    pt = k_complex(QQ, 0, "p")
    col = ChainMap.from_rule(h, pt, lambda d, l: [("p", 1)] if d == 0 else [])
    ker, incl, retr = kernel_complex(col)
    assert ker.dims() == {0: 1, 1: 1}
    assert not ker.homology_table()      # acyclic: reduced chains of H
    assert incl.source is ker
    for k in ker.degrees():
        assert (retr[k] @ incl.matrix(k)) == Matrix.identity(QQ, ker.dim(k))
    cok, proj, sect = cokernel_complex(col)
    assert cok.dims() == {}
    # cokernel of an inclusion
    inc = ChainMap.from_rule(pt, h, lambda d, l: [("g1", 1)])
    cok, proj, sect = cokernel_complex(inc)
    assert cok.dims() == {0: 1, 1: 1}
    assert not cok.homology_table()
    for k in cok.degrees():
        assert (proj.matrix(k) @ sect[k]) == Matrix.identity(QQ, cok.dim(k))


def test_a_label_outside_its_basis_is_a_value_error():
    h = interval(QQ)
    pt = k_complex(QQ, 0, "p")
    with pytest.raises(ValueError, match=r"degree 1.*'stray'"):
        ChainComplex.from_rule(QQ, {0: ["g0", "g1"], 1: ["g"]},
                               lambda d, l: [("stray", 1)])
    with pytest.raises(ValueError, match=r"'g1' in degree 0.*'stray'"):
        ChainMap.from_rule(h, h, lambda d, l: [
            ("stray" if l == "g1" else l, 1)])
    col = ChainMap.from_rule(h, pt, lambda d, l: [("p", 1)] if d == 0 else [])
    with pytest.raises(ValueError, match=r"degree 0.*'stray'"):
        col.apply(0, {"g0": 1, "stray": 1})


def test_koszul_sign():
    assert koszul_sign([1, 1], [1, 0]) == -1
    assert koszul_sign([1, 2], [1, 0]) == 1
    assert koszul_sign([0, 1], [1, 0]) == 1
    assert koszul_sign([1, 1, 1], [2, 1, 0]) == -1


def test_field_f2_parallel():
    h = interval(F2)
    assert h.homology_table() == {0: 1}
    hh = tensor_many(F2, [h, h])
    assert hh.homology_table() == {0: 1}

import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from opdual import linalg
from opdual.barcobar import bar, cobar, theta
from opdual.chain import ChainComplex, ChainMap
from opdual.fields import _PRIME_BOUND, _is_prime, Field, QQ, F2
from opdual.koszul import cb_to_kk, verify_kk
from opdual.linalg import Matrix, Eliminator
from opdual.operads import builtin_operad, extend_cooperad


class FractionQ(Field):
    """Q with every element a Fraction, integral or not: the slow path
    that the int-when-integral elements of QQ must agree with exactly."""

    def __init__(self):
        super().__init__(0)
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, x):
        return Fraction(x)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a


FQ = FractionQ()


def test_field_basics():
    assert QQ.of("2/3") == Fraction(2, 3)
    assert F2.of(5) == 1
    f5 = Field(5)
    assert f5.mul(3, 4) == 2
    assert f5.inv(3) == 2
    assert f5.of(Fraction(1, 2)) == 3
    with pytest.raises(ValueError):
        Field(6)


def _random_matrix(rng, field, m, n, density=0.4):
    mat = Matrix(field, m, n)
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                mat.add_entry(i, j, field.of(rng.randint(-3, 3)))
    return mat


def _dense_rank(mat):
    """Naive dense fraction-based rank oracle."""
    rows = [[Fraction(0)] * mat.ncols for _ in range(mat.nrows)]
    p = mat.field.char
    for (i, j), v in mat.data.items():
        rows[i][j] = Fraction(v)
    r = 0
    for c in range(mat.ncols):
        piv = None
        for i in range(r, mat.nrows):
            if (rows[i][c] % p if p else rows[i][c]) != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(mat.nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                if p:
                    rows[i] = [Fraction(int(a.numerator * pow(a.denominator, -1, p)) % p)
                               if a != 0 else Fraction(0) for a in rows[i]]
        r += 1
    return r


@pytest.mark.parametrize("field", [QQ, F2, Field(5)])
def test_rank_against_dense_oracle(field):
    rng = random.Random(11)
    for _ in range(25):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        a = _random_matrix(rng, field, m, n)
        assert a.rank() == _dense_rank(a)


@pytest.mark.parametrize("field", [QQ, F2])
def test_nullspace(field):
    rng = random.Random(3)
    for _ in range(20):
        a = _random_matrix(rng, field, rng.randint(1, 6), rng.randint(1, 6))
        null = a.nullspace()
        assert len(null) == a.ncols - a.rank()
        for v in null:
            out = {}
            for j, c in v.items():
                for i, w in a.column(j).items():
                    out[i] = field.add(out.get(i, field.zero), field.mul(c, w))
            assert all(x == field.zero for x in out.values())


def solve(a: Matrix, rhs: Matrix) -> Matrix:
    """X with a @ X = rhs, by a fresh elimination over the columns of a;
    ValueError if there is none. The reference that factoring through a
    kernel by its retraction must agree with; the package itself never
    solves."""
    if rhs.nrows != a.nrows:
        raise ValueError("shape mismatch in solve")
    elim = linalg.Eliminator(a.field, a.nrows)
    for j, col in enumerate(a.columns()):
        elim.add(col, tag=j)
    out = Matrix(a.field, a.ncols, rhs.ncols)
    for j, col in enumerate(rhs.columns()):
        res, comb = elim.reduce(col)
        if res:
            raise ValueError("inconsistent linear system")
        out.set_column(j, comb)
    return out


def test_solve():
    rng = random.Random(5)
    for _ in range(20):
        a = _random_matrix(rng, QQ, 5, 4)
        x = _random_matrix(rng, QQ, 4, 2)
        b = a @ x
        x2 = solve(a, b)
        assert a @ x2 == b
    a = Matrix(QQ, 2, 1, {(0, 0): Fraction(1)})
    with pytest.raises(ValueError):
        solve(a, Matrix(QQ, 2, 1, {(1, 0): Fraction(1)}))


def test_matrix_algebra():
    a = Matrix(QQ, 2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(2)})
    b = Matrix(QQ, 2, 2, {(1, 0): Fraction(3)})
    assert (a @ b).data == {(0, 0): 6}
    assert (a @ Matrix.identity(QQ, 2)) == a
    assert a.transpose().transpose() == a
    assert a.scale(Fraction(0)).is_zero()


def test_eliminator_reduce_residual():
    # residual of reduce() always avoids pivot rows (cokernel projection)
    rng = random.Random(9)
    a = _random_matrix(rng, QQ, 6, 4)
    elim = Eliminator(QQ, 6)
    for j, col in enumerate(a.columns()):
        elim.add(col, tag=j)
    for i in range(6):
        res, comb = elim.reduce({i: Fraction(1)})
        assert not (set(res) & elim.pivot_at.keys())


@st.composite
def sparse_entries(draw, field, nrows=None, ncols=None):
    """(nrows, ncols, {(i, j): Fraction}) with small numerators and, over
    F_p, denominators prime to p; over Q some entries are true fractions."""
    m = nrows or draw(st.integers(1, 6))
    n = ncols or draw(st.integers(1, 6))
    dens = [d for d in (1, 1, 2, 3, 5) if field.char == 0 or d % field.char]
    entries = draw(st.dictionaries(
        st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
        st.builds(Fraction, st.integers(-4, 4), st.sampled_from(dens)),
        max_size=m * n))
    return m, n, entries


def _matrix(field, shape):
    m, n, entries = shape
    return Matrix(field, m, n, {ij: field.of(v) for ij, v in entries.items()})


@pytest.mark.parametrize("field", [QQ, F2, Field(3)])
@given(data=st.data())
def test_rank_property_against_dense_oracle(field, data):
    a = _matrix(field, data.draw(sparse_entries(field)))
    assert a.rank() == _dense_rank(a)


def _scanned_column(m, j):
    """Column j read off the entries one by one: the slow path."""
    return {i: v for (i, jj), v in m.data.items() if jj == j}


@given(data=st.data())
def test_indexed_columns_match_scanned_columns(data):
    # the column index is rebuilt after every add_entry and set_column
    field = Field(3)
    m = _matrix(field, data.draw(sparse_entries(field)))

    def agree():
        return [m.column(j) for j in range(m.ncols)] == \
            [_scanned_column(m, j) for j in range(m.ncols)] == m.columns()

    assert agree()
    for _ in range(3):
        i = data.draw(st.integers(0, m.nrows - 1))
        j = data.draw(st.integers(0, m.ncols - 1))
        m.add_entry(i, j, data.draw(st.integers(1, 2)))
        assert agree()
        m.set_column(j, {i: 1})
        assert agree()


def _put(F, vec, i, v):
    if v == F.zero:
        vec.pop(i, None)
    else:
        vec[i] = v


class _AllPivotsEliminator:
    """Reference elimination: reduce() looks up every pivot found so far,
    in order, whatever the column's support. Eliminator.reduce must make
    exactly the same subtractions, in the same order."""

    def __init__(self, field, nrows, track=True):
        self.field, self.nrows, self.track = field, nrows, track
        self.reduced, self.pivot_rows, self.combos = [], [], []

    @property
    def rank(self):
        return len(self.reduced)

    def reduce(self, col):
        F = self.field
        res, comb = dict(col), {}
        for k, r in enumerate(self.pivot_rows):
            c = res.get(r, F.zero)
            if c == F.zero:
                continue
            for i, v in self.reduced[k].items():
                _put(F, res, i, F.sub(res.get(i, F.zero), F.mul(c, v)))
            if self.track:
                for t, v in self.combos[k].items():
                    _put(F, comb, t, F.add(comb.get(t, F.zero), F.mul(c, v)))
        return res, comb

    def add(self, col, tag=None):
        F = self.field
        res, comb = self.reduce(col)
        if not res:
            return comb
        pr = next((i for i, v in res.items() if F.is_unit_entry(v)), None)
        if pr is None:
            pr = min(res)
        inv = F.inv(res[pr])
        self.reduced.append({i: F.mul(inv, v) for i, v in res.items()})
        self.pivot_rows.append(pr)
        tcomb = {}
        if self.track:
            tcomb = {t: F.neg(F.mul(inv, v)) for t, v in comb.items()}
            if tag is not None:
                tcomb[tag] = F.add(tcomb.get(tag, F.zero), inv)
        self.combos.append(tcomb)
        return None


def _elim_state(e):
    """Everything an eliminator holds, with each dict's insertion order
    (which decides later pivot choices)."""
    return ([list(d.items()) for d in e.reduced], list(e.pivot_rows),
            [list(d.items()) for d in e.combos])


@pytest.mark.parametrize("track", [True, False])
@pytest.mark.parametrize("field", [QQ, F2, Field(3)])
@given(data=st.data())
def test_sparse_reduce_matches_all_pivot_reduce(field, track, data):
    m, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    a = _matrix(field, data.draw(sparse_entries(field, nrows=m, ncols=n)))
    b = _matrix(field, data.draw(sparse_entries(field, nrows=m)))
    elim = Eliminator(field, m, track=track)
    ref = _AllPivotsEliminator(field, m, track=track)
    for j, col in enumerate(a.columns()):
        dep, ref_dep = elim.add(col, tag=j), ref.add(col, tag=j)
        assert (dep is None) == (ref_dep is None)
        if dep is not None:
            assert list(dep.items()) == list(ref_dep.items())
        assert _elim_state(elim) == _elim_state(ref)
    for col in b.columns() + [{i: field.one} for i in range(m)]:
        res, comb = elim.reduce(col)
        ref_res, ref_comb = ref.reduce(col)
        assert list(res.items()) == list(ref_res.items())
        assert list(comb.items()) == list(ref_comb.items())
        assert not res.keys() & elim.pivot_at.keys()
    rhs = a @ a.transpose()
    fast = (a.rank(), a.nullspace(), solve(a, rhs))
    with mock.patch.object(linalg, "Eliminator", _AllPivotsEliminator):
        assert (a.rank(), a.nullspace(), solve(a, rhs)) == fast


@given(data=st.data())
def test_int_scalars_agree_with_fraction_scalars(data):
    shape = data.draw(sparse_entries(QQ))
    m, n, _ = shape
    b_shape = data.draw(sparse_entries(QQ, nrows=n))
    a, af = _matrix(QQ, shape), _matrix(FQ, shape)
    b, bf = _matrix(QQ, b_shape), _matrix(FQ, b_shape)
    assert all(isinstance(v, int) == (Fraction(v).denominator == 1)
               for v in a.data.values())
    assert a == af and b == bf
    assert a.rank() == af.rank()
    assert a.nullspace() == af.nullspace()
    ab, abf = a @ b, af @ bf
    assert ab == abf
    x = solve(a, ab)
    assert x == solve(af, abf)
    assert a @ x == ab


@given(st.fractions(max_denominator=12) | st.integers(-10**20, 10**20))
def test_qq_scalars_are_int_exactly_when_integral(x):
    integral = Fraction(x).denominator == 1
    for v in (x, Fraction(x), str(x)):
        y = QQ.of(v)
        assert y == x and (type(y) is int) == integral
    if x != 0:
        y = QQ.inv(x)
        assert y == 1 / Fraction(x)
        assert (type(y) is int) == ((1 / Fraction(x)).denominator == 1)


def test_int_scalar_pipeline_matches_fraction_pipeline():
    """bar, cobar, theta, cb_to_kk and verify_kk of com at arity 3 give
    the same matrices and verdicts over QQ and over FractionQ."""
    N = 3
    runs = []
    for field in (QQ, FQ):
        p = builtin_operad("com", field, N)
        bq = bar(p, N)
        cb = cobar(extend_cooperad(bq), N)
        th = theta(p, N, cb=cb)[2]
        _, kkp, dd = cb_to_kk(p, N, cb=cb)
        maps = []
        for n in range(1, N + 1):
            maps += [bq.term(n), cb.term(n), kkp.term(n), th[n], dd[n]]
            maps += [q.sigma_adj(n, i) for q in (bq, cb) for i in range(1, n)]
            for m in range(1, n + 1):
                for i in range(1, m + 1):
                    maps += [bq.cocirc(m, i, n - m + 1),
                             cb.circ(m, i, n - m + 1)]
        runs.append((maps, verify_kk(p, N)))
    (maps_q, rep_q), (maps_f, rep_f) = runs
    assert len(maps_q) == len(maps_f)
    for mq, mf in zip(maps_q, maps_f):
        assert mq == mf
    assert rep_q == rep_f and all(c["pass"] for c in rep_q["checks"])

    def values(maps):
        for c in maps:
            mats = c.diff.values() if hasattr(c, "diff") else c.mats.values()
            for mat in mats:
                yield from mat.data.values()

    assert all(type(v) is int for v in values(maps_q))
    assert all(type(v) is Fraction for v in values(maps_f))


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_miller_rabin_agrees_with_trial_division():
    sieve = bytearray([1]) * 10 ** 5
    sieve[0] = sieve[1] = 0
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = bytearray(len(sieve[d * d::d]))
    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if sieve[n]]
    assert all(_is_prime(n) == _trial_division(n)
               for n in range(10 ** 6, 10 ** 6 + 2000))


def test_a_large_prime_field_is_accepted_at_once():
    t0 = time.perf_counter()
    f = Field(10 ** 18 + 3)
    assert time.perf_counter() - t0 < 1
    assert f.mul(f.inv(12345), 12345) == 1
    # strong pseudoprimes to many of the bases stay composite
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="prime"):
            Field(n)
    with pytest.raises(ValueError, match="below"):
        Field(_PRIME_BOUND)


# -- the written-out sums against add_entry, entry by entry ----------------

KERNEL_FIELDS = pytest.mark.parametrize(
    "field", [QQ, F2, Field(3), FQ], ids=["q", "f2", "f3", "fraction-q"])


@st.composite
def _terms(draw, field, nrows, ncols):
    """(i, j, coeff) triples with repeats and coefficients +-1, 2 and 1/2
    (1/2 only where it exists), so that sums cancel to zero and a key is
    popped and later inserted again."""
    coeffs = [1, -1, 2] + ([Fraction(1, 2)] if field.char != 2 else [])
    return draw(st.lists(st.tuples(
        st.integers(0, nrows - 1), st.integers(0, ncols - 1),
        st.sampled_from(coeffs)), max_size=3 * nrows * ncols))


def _by_add_entry(field, nrows, ncols, terms):
    m = Matrix(field, nrows, ncols)
    for i, j, c in terms:
        m.add_entry(i, j, field.of(c))
    return m


def _entries(data):
    """The entries in order, with the type of each value."""
    return [(k, v, type(v)) for k, v in data.items()]


@KERNEL_FIELDS
@given(data=st.data())
def test_matmul_matches_the_add_entry_product(field, data):
    m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = _by_add_entry(field, m, k, data.draw(_terms(field, m, k)))
    b = _by_add_entry(field, k, n, data.draw(_terms(field, k, n)))
    ref = Matrix(field, m, n)
    by_col = {}
    for (i, j), v in a.data.items():
        by_col.setdefault(j, []).append((i, v))
    for (kk, j), w in b.data.items():
        for i, v in by_col.get(kk, ()):
            ref.add_entry(i, j, field.mul(v, w))
    assert _entries((a @ b).data) == _entries(ref.data)


def _complexes(field, nrows, ncols):
    low = ChainComplex(field, {0: [f"r{i}" for i in range(nrows)]}, {})
    high = ChainComplex(field, {0: [f"c{j}" for j in range(ncols)]}, {})
    both = ChainComplex(field, {0: [f"r{i}" for i in range(nrows)],
                                1: [f"c{j}" for j in range(ncols)]}, {})
    return low, high, both


@KERNEL_FIELDS
@given(data=st.data())
def test_rule_fills_and_apply_match_add_entry(field, data):
    m, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    terms = data.draw(_terms(field, m, n))
    # a rule fill goes column by column, each in the rule's order
    ref = _by_add_entry(field, m, n, sorted(terms, key=lambda t: t[1]))
    low, high, both = _complexes(field, m, n)

    def rule(d, l):
        return [(f"r{i}", c) for i, j, c in terms if f"c{j}" == l]

    f = ChainMap.from_rule(high, low, rule, check=False)
    assert _entries(f.matrix(0).data) == _entries(ref.data)
    c = ChainComplex.from_rule(field, both.basis,
                               lambda d, l: rule(d, l) if d == 1 else [],
                               check=False)
    assert _entries(c.d_matrix(1).data) == _entries(ref.data)
    vec = {f"c{j}": field.of(cj) for j, cj in enumerate(
        data.draw(st.lists(st.sampled_from([1, -1, 2]), min_size=n,
                           max_size=n)))}
    out = {}
    for l, cl in vec.items():
        for i, v in ref.column(int(l[1:])).items():
            _put(field, out, f"r{i}",
                 field.add(out.get(f"r{i}", field.zero), field.mul(cl, v)))
    assert _entries(f.apply(0, vec)) == _entries(out)
    for l in high.basis[0]:
        assert _entries(f.image(l)) == _entries(f.apply(0, {l: field.one}))


@KERNEL_FIELDS
def test_a_cancelled_entry_comes_back_last(field):
    # (0, 0) is stored, cancelled (popped) and stored again after (1, 0)
    terms = [(0, 0, 1), (1, 0, 1), (0, 0, -1), (0, 0, 1)]
    low, high, _ = _complexes(field, 2, 1)
    f = ChainMap.from_rule(high, low, lambda d, l: [
        (f"r{i}", c) for i, _, c in terms], check=False)
    assert list(f.matrix(0).data) == [(1, 0), (0, 0)]
    a = Matrix(field, 2, 3, {ij: field.of(v) for ij, v in {
        (0, 0): 1, (1, 1): 1, (0, 1): -1, (0, 2): 1}.items()})
    b = Matrix(field, 3, 1, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
    assert list((a @ b).data) == [(1, 0), (0, 0)]
    low3 = _complexes(field, 3, 1)[0]
    images = {"r0": [("r0", 1), ("r1", 1)], "r1": [("r0", -1)],
              "r2": [("r0", 1)]}
    g = ChainMap.from_rule(low3, low3, lambda d, l: images[l], check=False)
    assert list(g.apply(0, {"r0": 1, "r1": 1, "r2": 1})) == ["r1", "r0"]


def test_a_matrix_stores_field_values_and_no_zero():
    # a value given to the constructor or to set_column is stored as its
    # Field.of, and one that is 0 in the field is not stored
    f3 = Field(3)
    assert Matrix(f3, 1, 1, {(0, 0): 3}).is_zero()
    assert Matrix(f3, 1, 1, {(0, 0): 3}) == Matrix(f3, 1, 1)
    assert Matrix(f3, 1, 2, {(0, 0): -1, (0, 1): 7}).data == \
        {(0, 0): 2, (0, 1): 1}
    m = Matrix(f3, 2, 1)
    m.set_column(0, {0: 6, 1: -4})
    assert m.data == {(1, 0): 2}
    assert m.column(0) == {1: 2}
    q = Matrix(QQ, 1, 1, {(0, 0): Fraction(4, 2)})
    assert type(q.data[(0, 0)]) is int and q.data[(0, 0)] == 2

"""Finitely generated chain complexes over an exact field.

Complexes carry a named basis per degree; every constructor asserts
d^2 = 0 and every chain map asserts the chain-map law, so sign errors
anywhere upstream surface immediately.

Sign conventions (fixed once, verified by tests):
  tensor        d(a(x)b) = da(x)b + (-1)^|a| a(x)db
  shift by s    boundary scaled by (-1)^s
  dual          (d phi)(x) = -phi(dx); then dual(dual(A)) = A on the nose
  chain map     f d = (-1)^s d f for a map of degree s
"""
from __future__ import annotations

import functools

from .fields import Field
from .linalg import Matrix


def _stray(what, err: KeyError, basis) -> ValueError:
    """The error for a label outside its basis, in place of the KeyError
    err that looking it up raised."""
    return ValueError(f"{what}: {err.args[0]!r} is not a label of {basis}")


def _fill(m: Matrix, labels, rule, index, stray) -> Matrix:
    """m with column j summing the (label, coeff) pairs of rule(labels[j])
    at the rows index gives their labels: add_entry written out, with the
    same gets, stores and pops in the same order, so the entries come out
    in the order it gives them. A label missing from index raises
    stray(the label of the column, the KeyError)."""
    data, F = m.data, m.field
    get, pop, of, p = data.get, data.pop, F.of, F.char
    for j, l in enumerate(labels):
        try:
            for l2, c in rule(l):
                ij = (index[l2], j)
                x = get(ij, 0) + of(c)
                if p:
                    x %= p
                if x:
                    data[ij] = x
                else:
                    pop(ij, None)
        except KeyError as e:
            raise stray(l, e) from e
    return m


class ChainComplex:
    def __init__(self, field: Field, basis: dict, diff: dict, check: bool = True):
        """basis: degree -> sequence of hashable labels (unique across all
        degrees); diff: degree k -> Matrix dim(k-1) x dim(k)."""
        self.field = field
        self.basis = {d: tuple(b) for d, b in basis.items() if len(b) > 0}
        self.diff = {}
        self._index = {}
        self.label_degree = {}
        for d, labels in self.basis.items():
            self._index[d] = {l: i for i, l in enumerate(labels)}
            for l in labels:
                if l in self.label_degree:
                    raise ValueError(f"duplicate basis label {l!r}")
                self.label_degree[l] = d
        for k, m in diff.items():
            if m.is_zero():
                continue
            if m.nrows != self.dim(k - 1) or m.ncols != self.dim(k):
                raise ValueError(f"boundary shape mismatch in degree {k}")
            self.diff[k] = m
        if check:
            for k in self.diff:
                lower = self.diff.get(k - 1)
                if lower is not None and not (lower @ self.diff[k]).is_zero():
                    raise ValueError(f"d^2 != 0 at degree {k}")

    @classmethod
    def from_rule(cls, field, basis, rule, check=True):
        """rule(degree, label) -> iterable of (label_in_degree-1, coeff)."""
        basis = {d: tuple(b) for d, b in basis.items() if len(b) > 0}
        index = {d: {l: i for i, l in enumerate(b)} for d, b in basis.items()}
        diff = {}
        for d, labels in basis.items():
            if d - 1 not in basis:
                continue
            diff[d] = _fill(
                Matrix(field, len(basis[d - 1]), len(labels)), labels,
                functools.partial(rule, d), index[d - 1],
                lambda l, e, d=d: _stray(
                    f"the boundary rule at {l!r} in degree {d}", e,
                    f"degree {d - 1} of the complex of dims "
                    f"{ {k: len(b) for k, b in basis.items()} }"))
        return cls(field, basis, diff, check=check)

    def dim(self, k) -> int:
        return len(self.basis.get(k, ()))

    def degrees(self):
        return sorted(self.basis)

    def dims(self) -> dict:
        return {d: len(b) for d, b in self.basis.items()}

    def total_dim(self) -> int:
        return sum(len(b) for b in self.basis.values())

    def index(self, k) -> dict:
        return self._index.get(k, {})

    def d_matrix(self, k) -> Matrix:
        m = self.diff.get(k)
        if m is None:
            m = Matrix(self.field, self.dim(k - 1), self.dim(k))
        return m

    def boundary_of(self, label) -> dict:
        """d of a basis element as a label-keyed vector."""
        k = self.label_degree[label]
        m = self.diff.get(k)
        if m is None:
            return {}
        low = self.basis[k - 1]
        return {low[i]: v for i, v in m.column(self._index[k][label]).items()}

    def homology_table(self) -> dict:
        out = {}
        ranks = {k: self.d_matrix(k).rank() for k in self.diff}
        for k in self.degrees():
            h = self.dim(k) - ranks.get(k, 0) - ranks.get(k + 1, 0)
            if h:
                out[k] = h
        return out

    def __eq__(self, other):
        return (isinstance(other, ChainComplex) and self.field == other.field
                and self.basis == other.basis and self.diff == other.diff)

    def __repr__(self):
        return f"ChainComplex({self.field}, dims={self.dims()})"


def zero_complex(field) -> ChainComplex:
    return ChainComplex(field, {}, {})


def k_complex(field, degree=0, label="1") -> ChainComplex:
    return ChainComplex(field, {degree: [label]}, {})


class ChainMap:
    def __init__(self, source: ChainComplex, target: ChainComplex, mats: dict,
                 degree: int = 0, check: bool = True):
        self.source = source
        self.target = target
        self.degree = degree
        self.mats = {}
        for k, m in mats.items():
            if m.is_zero():
                continue
            if m.nrows != target.dim(k + degree) or m.ncols != source.dim(k):
                raise ValueError(f"map shape mismatch in degree {k}")
            self.mats[k] = m
        if check:
            self.verify()

    def verify(self):
        s = self.degree
        for k in set(self.source.degrees()) | {d + 1 for d in self.source.degrees()}:
            lhs = self.matrix(k - 1) @ self.source.d_matrix(k)
            rhs = self.target.d_matrix(k + s) @ self.matrix(k)
            if lhs != (rhs.scale(-1) if s % 2 else rhs):
                raise ValueError(f"chain-map law fails at degree {k}")

    @classmethod
    def from_rule(cls, source, target, rule, degree=0, check=True):
        """rule(degree, source label) -> iterable of (target label, coeff)."""
        mats = {}
        for k in source.degrees():
            mats[k] = _fill(
                Matrix(source.field, target.dim(k + degree), source.dim(k)),
                source.basis[k], functools.partial(rule, k),
                target.index(k + degree),
                lambda l, e, k=k: _stray(
                    f"the rule at {l!r} in degree {k} of {source!r}", e,
                    f"degree {k + degree} of {target!r}"))
        return cls(source, target, mats, degree=degree, check=check)

    @classmethod
    def zero(cls, source, target, degree=0):
        return cls(source, target, {}, degree=degree, check=False)

    @classmethod
    def identity(cls, c: ChainComplex):
        mats = {k: Matrix.identity(c.field, c.dim(k)) for k in c.degrees()}
        return cls(c, c, mats, check=False)

    def matrix(self, k) -> Matrix:
        m = self.mats.get(k)
        if m is None:
            m = Matrix(self.source.field, self.target.dim(k + self.degree),
                       self.source.dim(k))
        return m

    def apply(self, k, vec: dict) -> dict:
        """Apply to a label-keyed vector in source degree k. The sum is
        written out as in _fill."""
        p = self.source.field.char
        six = self.source.index(k)
        m = self.matrix(k)
        out = {}
        get, pop = out.get, out.pop
        try:
            for l, c in vec.items():
                for i, v in m.column(six[l]).items():
                    x = get(i, 0) + c * v
                    if p:
                        x %= p
                    if x:
                        out[i] = x
                    else:
                        pop(i, None)
        except KeyError as e:
            raise _stray(f"a vector in degree {k} applied by {self!r}", e,
                         f"degree {k} of its source") from e
        tl = self.target.basis.get(k + self.degree, ())
        return {tl[i]: v for i, v in out.items()}

    def image(self, x) -> dict:
        """The image of the basis label x, read off its column with no
        arithmetic: the same dict, in the same order, as
        apply(k, {x: one}) for k the degree of x, and {} in a degree
        where the map is zero."""
        try:
            k = self.source.label_degree[x]
        except KeyError as e:
            raise _stray(f"a label applied by {self!r}", e, "its source") from e
        m = self.mats.get(k)
        if m is None:
            return {}
        tl = self.target.basis[k + self.degree]
        return {tl[i]: v for i, v in m.column(self.source._index[k][x]).items()}

    def then(self, other: "ChainMap") -> "ChainMap":
        """other compose self (self first)."""
        if other.source is not self.target and other.source != self.target:
            raise ValueError("composition mismatch")
        mats = {}
        for k in self.source.degrees():
            mats[k] = other.matrix(k + self.degree) @ self.matrix(k)
        return ChainMap(self.source, other.target, mats,
                        degree=self.degree + other.degree, check=False)

    def __eq__(self, other):
        if not isinstance(other, ChainMap) or self.degree != other.degree:
            return False
        keys = set(self.mats) | set(other.mats)
        return all(self.matrix(k) == other.matrix(k) for k in keys)

    def is_zero(self):
        return all(m.is_zero() for m in self.mats.values())

    def is_iso(self):
        ds = self.source.dims()
        if ds != {k - self.degree: v for k, v in self.target.dims().items()}:
            return False
        return all(self.matrix(k).rank() == dim for k, dim in ds.items())

    def __repr__(self):
        return f"ChainMap(deg={self.degree}, {self.source!r} -> {self.target!r})"


def direct_sum(field, summands) -> ChainComplex:
    """summands: list of (tag, ChainComplex). The sum, with labels
    (tag, original label); no summands give the zero complex."""
    basis = {}
    for tag, c in summands:
        for d, labels in c.basis.items():
            basis.setdefault(d, []).extend((tag, l) for l in labels)
    lookup = {tag: c for tag, c in summands}

    def rule(d, lab):
        tag, l = lab
        return [((tag, l2), v) for l2, v in lookup[tag].boundary_of(l).items()]

    return ChainComplex.from_rule(field, basis, rule, check=False)


def _graded_basis(labeled):
    """degree -> labels sorted by repr, from (label, degree) pairs."""
    basis = {}
    for l, d in labeled:
        basis.setdefault(d, []).append(l)
    for d in basis:
        basis[d].sort(key=repr)
    return basis


def _sgn(e):
    """(-1)^e as the int +-1, for any int e (a cobar degree is negative,
    and (-1) ** -3 is a float)."""
    return -1 if e % 2 else 1


def koszul_sign(degrees, positions):
    """Sign for reordering graded symbols: degrees[i] is the degree of the
    i-th source symbol, positions[i] its target slot. Sign is the product of
    (-1)^{d_i d_j} over inverted pairs."""
    exp = 0
    n = len(degrees)
    for i in range(n):
        for j in range(i + 1, n):
            if positions[i] > positions[j]:
                exp += degrees[i] * degrees[j]
    return _sgn(exp)


def tensor_many(field, factors):
    """Tensor product with basis labels = tuples of factor labels.

    An empty factor list gives the unit k[0] with label ()."""
    if any(f.total_dim() == 0 for f in factors):
        return zero_complex(field)
    combos = {(): 0}
    for f in factors:
        new = {}
        for tup, d in combos.items():
            for l, dl in f.label_degree.items():
                new[tup + (l,)] = d + dl
        combos = new
    basis = _graded_basis(combos.items())

    fdeg = [f.label_degree for f in factors]

    def rule(d, tup):
        out = []
        sign = 1
        for i, f in enumerate(factors):
            dl = f.boundary_of(tup[i])
            for l2, c in dl.items():
                out.append((tup[:i] + (l2,) + tup[i + 1:], sign * c))
            if fdeg[i][tup[i]] % 2 == 1:
                sign = -sign
        return out

    return ChainComplex.from_rule(field, basis, rule)


def tensor_map_many(field, maps, source=None, target=None):
    """Tensor of chain maps. Sign rule: applying f_i to (a_1 (x) ... (x) a_k)
    picks up (-1)^{deg(f_i) * (|a_1|+...+|a_{i-1}|)}."""
    if source is None:
        source = tensor_many(field, [m.source for m in maps])
    if target is None:
        target = tensor_many(field, [m.target for m in maps])
    deg = sum(m.degree for m in maps)
    sdeg = [m.source.label_degree for m in maps]

    def rule(d, tup):
        terms = [((), 1)]
        below = 0
        for i, m in enumerate(maps):
            k = sdeg[i][tup[i]]
            img = m.image(tup[i])
            s = _sgn(m.degree * below)
            new = []
            for tup0, c0 in terms:
                for l2, c2 in img.items():
                    new.append((tup0 + (l2,), c0 * s * c2))
            terms = new
            below += k
        return terms

    return ChainMap.from_rule(source, target, rule, degree=deg)


def _place(labels, degrees, slots):
    """Put labels[i], of degree degrees[i], into slot slots[i]: the
    reordered tuple and the Koszul sign of the reordering."""
    out = [None] * len(slots)
    for l, s in zip(labels, slots):
        out[s] = l
    return tuple(out), koszul_sign(degrees, slots)


def _placer(factors, slots):
    """_place on the labels of the tensor of the complexes factors, with
    the inverse slot order found once: x -> (the reordered tuple, its
    Koszul sign). The sign is 1 unless some factor has an odd degree,
    and only then is koszul_sign called."""
    back = sorted(range(len(slots)), key=slots.__getitem__)
    if not any(d % 2 for f in factors for d in f.basis):
        return lambda x: (tuple([x[i] for i in back]), 1)
    degrees = [f.label_degree for f in factors]
    return lambda x: (tuple([x[i] for i in back]), koszul_sign(
        [g[l] for g, l in zip(degrees, x)], slots))


def shift(c: ChainComplex, s: int) -> ChainComplex:
    basis = {d + s: labels for d, labels in c.basis.items()}
    diff = {k + s: c.diff[k].scale(_sgn(s)) for k in c.diff}
    return ChainComplex(c.field, basis, diff)


def linear_dual(c: ChainComplex) -> ChainComplex:
    """Degree k basis = duals of degree -k; (d phi)(x) = -phi(dx)."""
    basis = {-d: [("dual", l) for l in labels] for d, labels in c.basis.items()}
    diff = {}
    for k in c.diff:
        # boundary on duals in degree -k+1, target degree -k
        m = c.diff[k].transpose().scale(-1)
        diff[-k + 1] = m
    return ChainComplex(c.field, basis, diff)


def dual_map(f: ChainMap, source=None, target=None) -> ChainMap:
    """Dual of a degree-0 chain map: dual(target) -> dual(source). A
    given source or target is used as that dual, which it must be, so
    that maps between duals built once share them; the chain-map law is
    checked against the complexes used."""
    if f.degree != 0:
        raise ValueError("dual_map needs degree 0")
    src = linear_dual(f.target) if source is None else source
    tgt = linear_dual(f.source) if target is None else target
    mats = {-k: f.matrix(k).transpose() for k in f.mats}
    return ChainMap(src, tgt, mats)


def cone(f: ChainMap) -> ChainComplex:
    """Mapping cone of a degree-0 map: C_k = src_{k-1} + tgt_k,
    d(x, y) = (-dx, f(x) + dy)."""
    if f.degree != 0:
        raise ValueError("cone needs a degree-0 map")
    field = f.source.field
    basis = {}
    for d, labels in f.source.basis.items():
        basis.setdefault(d + 1, []).extend(("c0", l) for l in labels)
    for d, labels in f.target.basis.items():
        basis.setdefault(d, []).extend(("c1", l) for l in labels)

    def rule(d, lab):
        side, l = lab
        if side == "c1":
            return [(("c1", l2), v) for l2, v in f.target.boundary_of(l).items()]
        out = [(("c0", l2), -v)
               for l2, v in f.source.boundary_of(l).items()]
        out.extend((("c1", l2), v) for l2, v in f.image(l).items())
        return out

    return ChainComplex.from_rule(field, basis, rule)


def is_quasi_iso(f: ChainMap) -> bool:
    return not cone(f).homology_table()


def hom_complex(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Mapping complex: degree-s basis = pairs ("h", la, lb) with
    |lb| - |la| = s, representing la -> lb. Differential realizes
    (df)(x) = d(f(x)) - (-1)^{|f|} f(dx); cycles of degree s are exactly
    chain maps of degree s."""
    field = a.field
    basis = _graded_basis((("h", la, lb), db - da)
                          for la, da in a.label_degree.items()
                          for lb, db in b.label_degree.items())

    # transpose of a's boundary: for each la, which la' have la in d(la')
    up = {}
    for k in a.diff:
        labels_hi = a.basis[k]
        labels_lo = a.basis[k - 1]
        for (i, j), v in a.diff[k].data.items():
            up.setdefault(labels_lo[i], []).append((labels_hi[j], v))

    def rule(s, lab):
        _, la, lb = lab
        out = [(("h", la, l2), v) for l2, v in b.boundary_of(lb).items()]
        sgn = -_sgn(s)
        for la2, v in up.get(la, ()):
            out.append((("h", la2, lb), sgn * v))
        return out

    return ChainComplex.from_rule(field, basis, rule)


def _hom_rule(pre: ChainMap = None, post: ChainMap = None):
    """The rule of f -> post f pre on one label ("h", la, lb) of hom(A,B),
    into hom(C,D), given pre: C -> A and post: B -> D of degree 0; a
    missing one is the identity."""
    # for each la in A, the C-elements pre sends onto it
    back = {}
    if pre is not None:
        for k in pre.source.degrees():
            src_labels = pre.source.basis[k]
            tgt_labels = pre.target.basis.get(k, ())
            for (i, j), v in pre.matrix(k).data.items():
                back.setdefault(tgt_labels[i], []).append((src_labels[j], v))

    def rule(s, lab):
        _, la, lb = lab
        las = [(la, 1)] if pre is None else back.get(la, ())
        lbs = [(lb, 1)] if post is None else post.image(lb).items()
        return [(("h", la2, lb2), ca * cb)
                for la2, ca in las for lb2, cb in lbs]

    return rule


def hom_map(homab: ChainComplex, homcd: ChainComplex, pre: ChainMap = None,
            post: ChainMap = None) -> ChainMap:
    """hom(A,B) -> hom(C,D), f -> post f pre, the map of _hom_rule."""
    return ChainMap.from_rule(homab, homcd, _hom_rule(pre, post))


def kernel_complex(f: ChainMap):
    """Kernel of a degree-0 chain map.

    Returns (K, incl, retr) where incl: K -> source is a chain map and
    retr: degree -> Matrix is a degreewise retraction of incl (retr @
    incl = 1, not a chain map in general), whose transpose is the section
    of cokernel_complex. retr reads each kernel vector at the column j_r
    that Matrix.nullspace made it for. Kernel labels are ("ker", k, i)."""
    if f.degree != 0:
        raise ValueError("kernel needs degree 0")
    field = f.source.field
    null = {k: f.matrix(k).nullspace() for k in f.source.degrees()}
    basis = {k: [("ker", k, i) for i in range(len(v))] for k, v in null.items() if v}
    incl_mats, retr = {}, {}
    for k in basis:
        incl_mats[k] = Matrix.from_columns(field, f.source.dim(k), null[k])
        retr[k] = Matrix(field, len(null[k]), f.source.dim(k),
                         {(r, max(v)): field.one for r, v in enumerate(null[k])})
    diff = {}
    for k in basis:
        img = f.source.d_matrix(k) @ incl_mats[k]
        if k - 1 in basis:
            diff[k] = retr[k - 1] @ img
        elif not img.is_zero():
            raise AssertionError("kernel not preserved by boundary")
    ker = ChainComplex(field, basis, diff, check=True)
    incl = ChainMap(ker, f.source, incl_mats, check=True)
    return ker, incl, retr


def cokernel_complex(f: ChainMap):
    """Cokernel of a degree-0 chain map, the dual of the kernel of its
    dual: over a field coker(f) = ker(f*)*.

    Returns (C, proj, sect) where proj: target -> C is a chain map and
    sect: degree -> Matrix is a degreewise section of proj (not a chain
    map in general), the transpose of the kernel's retraction. The r-th
    class in degree k is labelled ("cok", k, l), l the target label at
    which that retraction reads the r-th kernel vector; l represents the
    class, proj sending l to it alone."""
    if f.degree != 0:
        raise ValueError("cokernel needs degree 0")
    ker, incl, retr = kernel_complex(dual_map(f))
    dual = linear_dual(ker)
    basis = {k: [("cok", k, f.target.basis[k][j])
                 for _, j in sorted(retr[-k].data)] for k in dual.basis}
    cok = ChainComplex(f.source.field, basis, dual.diff)
    proj = dual_map(incl, source=f.target, target=cok)
    sect = {k: retr[-k].transpose() for k in basis}
    return cok, proj, sect

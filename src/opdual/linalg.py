"""Sparse exact matrices and Gaussian elimination over a Field.

Matrices are dicts keyed by (row, col); vectors are dicts keyed by row.
The Eliminator does incremental column reduction and backs every rank
and kernel in the package; a cokernel is the dual of the kernel of the
dual map (chain.cokernel_complex). Maps are factored through a kernel
or out of a cokernel by multiplying with a retraction or a section, with
no further elimination.
"""
from __future__ import annotations

from heapq import heapify, heappop, heappush

from .fields import Field


class Matrix:
    __slots__ = ("field", "nrows", "ncols", "data", "_cols")

    def __init__(self, field: Field, nrows: int, ncols: int, data=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.data = {}
        self._cols = None
        if data:
            for (i, j), v in data.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                v = field.of(v)
                if v:
                    self.data[(i, j)] = v

    @classmethod
    def identity(cls, field, n):
        return cls(field, n, n, {(i, i): field.one for i in range(n)})

    def add_entry(self, i, j, v):
        self._cols = None
        F = self.field
        w = F.add(self.data.get((i, j), F.zero), v)
        if w == F.zero:
            self.data.pop((i, j), None)
        else:
            self.data[(i, j)] = w

    def scale(self, c):
        F = self.field
        m = Matrix(F, self.nrows, self.ncols)
        if c != F.zero:
            m.data = {ij: F.mul(c, v) for ij, v in self.data.items()}
        return m

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        out = Matrix(self.field, self.nrows, other.ncols)
        # group left entries by column for sparse product
        by_col = {}
        for (i, j), v in self.data.items():
            by_col.setdefault(j, []).append((i, v))
        # add_entry written out: the same gets, stores and pops, in the
        # same order, so the entries come out in the order it gives them
        data, p = out.data, self.field.char
        get, pop = data.get, data.pop
        for (k, j), w in other.data.items():
            for i, v in by_col.get(k, ()):
                x = get((i, j), 0) + v * w
                if p:
                    x %= p
                if x:
                    data[i, j] = x
                else:
                    pop((i, j), None)
        return out

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.data == other.data)

    def is_zero(self):
        return not self.data

    def transpose(self):
        m = Matrix(self.field, self.ncols, self.nrows)
        m.data = {(j, i): v for (i, j), v in self.data.items()}
        return m

    def column(self, j):
        """Column j as a read-only {row: value}. The columns are indexed
        on the first call after a change, so reading every column of a
        map one label at a time costs one pass over the entries, not one
        per column."""
        if self._cols is None:
            self._cols = {}
            for (i, jj), v in self.data.items():
                self._cols.setdefault(jj, {})[i] = v
        return self._cols.get(j) or {}

    def columns(self):
        cols = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.data.items():
            cols[j][i] = v
        return cols

    def set_column(self, j, vec):
        self._cols = None
        of = self.field.of
        for i, v in vec.items():
            v = of(v)
            if v:
                self.data[(i, j)] = v

    @classmethod
    def from_columns(cls, field, nrows, cols):
        m = cls(field, nrows, len(cols))
        for j, col in enumerate(cols):
            m.set_column(j, col)
        return m

    def rank(self):
        elim = Eliminator(self.field, self.nrows, track=False)
        for col in self.columns():
            elim.add(col)
        return elim.rank

    def nullspace(self):
        """Basis of the right kernel, as a list of column vectors (dicts).

        Vector r is e_{j_r} minus a combination of the pivot columns
        before j_r, j_r being the r-th column that depends on earlier
        ones. So j_r is the largest index of its support, and every other
        vector of the basis is 0 there: reading each vector at its j_r
        is a retraction of the kernel inclusion (chain.kernel_complex)."""
        elim = Eliminator(self.field, self.nrows)
        out = []
        for j, col in enumerate(self.columns()):
            dep = elim.add(col, tag=j)
            if dep is not None:
                v = {j: self.field.one}
                _vec_sub(self.field, v, dep)
                out.append(v)
        return out

    def __repr__(self):
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}, nnz={len(self.data)})"


def _vec_sub(F, a: dict, b: dict, c=None):
    """a -= c*b in place (c defaults to 1)."""
    for i, v in b.items():
        w = F.mul(c, v) if c is not None else v
        u = F.sub(a.get(i, F.zero), w)
        if u == F.zero:
            a.pop(i, None)
        else:
            a[i] = u


class Eliminator:
    """Incremental column reduction against an accumulating pivot set.

    Feed columns with add(); dependencies come back as combinations of
    previously added columns (by tag), which yields kernels.
    reduce() leaves a residual supported away from the pivot rows.

    reduce() visits the pivots in increasing index order, but only those
    whose pivot row the residual can reach: a heap is seeded with the
    pivots on the column's support, and after subtracting reduced[k] the
    pivots on reduced[k]'s support are pushed. This is exact, not an
    approximation: reduced[k] is zero on the pivot row of every earlier
    pivot, so an entry on pivot row j can only come from the column or
    from some reduced[k] with k < j, and j is queued by then. Every
    pivot left out would have found a zero entry and been skipped; the
    subtractions, their order, and so the residual, combo and every later
    pivot are those of a walk over all pivots.
    """

    def __init__(self, field: Field, nrows: int, track: bool = True):
        self.field = field
        self.nrows = nrows
        self.track = track
        self.reduced = []      # reduced columns, pivot entry normalized to 1
        self.pivot_rows = []   # pivot row of each reduced column
        self.combos = []       # tag-combination realizing each reduced column
        self.pivot_at = {}     # pivot row -> index of its reduced column

    @property
    def rank(self):
        return len(self.reduced)

    def reduce(self, col: dict):
        """Return (residual, combo): col = A@combo + residual, residual
        having no support on pivot rows."""
        F = self.field
        res = dict(col)
        comb: dict = {}
        pivot_at = self.pivot_at
        heap = [pivot_at[r] for r in res if r in pivot_at]
        heapify(heap)
        queued = set(heap)
        while heap:
            k = heappop(heap)
            c = res.get(self.pivot_rows[k])
            if c is None or c == F.zero:
                continue
            red = self.reduced[k]
            _vec_sub(F, res, red, c)
            for r in red:
                j = pivot_at.get(r)
                if j is not None and j not in queued:
                    queued.add(j)
                    heappush(heap, j)
            if self.track:
                for tag, v in self.combos[k].items():
                    u = F.add(comb.get(tag, F.zero), F.mul(c, v))
                    if u == F.zero:
                        comb.pop(tag, None)
                    else:
                        comb[tag] = u
        return res, comb

    def add(self, col: dict, tag=None):
        """Add a column. Returns None if independent, else the combo of
        earlier tags equaling this column."""
        F = self.field
        res, comb = self.reduce(col)
        if not res:
            return comb
        # prefer a +-1 pivot to avoid fraction growth
        pr = None
        for i, v in res.items():
            if F.is_unit_entry(v):
                pr = i
                break
        if pr is None:
            pr = min(res)
        pv = res[pr]
        inv = F.inv(pv)
        norm = {i: F.mul(inv, v) for i, v in res.items()}
        self.reduced.append(norm)
        self.pivot_at[pr] = len(self.pivot_rows)
        self.pivot_rows.append(pr)
        if self.track:
            tcomb = {t: F.neg(F.mul(inv, v)) for t, v in comb.items()}
            if tag is not None:
                tcomb[tag] = F.add(tcomb.get(tag, F.zero), inv)
            self.combos.append(tcomb)
        else:
            self.combos.append({})
        return None

"""Bar, cobar, W- and co-W-constructions and the maps relating them.

The generic engine computes coends and ends of tree-indexed diagrams
over the cover relations (single-edge expansions), which generate the
whole preorder; a brute-force mode using every relation is kept around
as an oracle for the tests.

The bar, W and cobar constructions come in closed form: a basis indexed
by trees with decorations, with the coend or end identifications
carried out symbolically. Every comparison runs on the closed forms; the
engines (bar_engine, w_engine, cobar_engine) cross-check them, and the
cobar verb of the command line prints cobar_engine.

The mirrored constructions share one skeleton per step:
  _window            (from operads) the one memo: per map build, the
                     structure maps of its trees or a plan per key (the
                     moves of an action per tree and decoration, the
                     plan of theta per marked tree), each built once and
                     dropped after the build (closed forms, bar_map,
                     theta, theta_star); per object, the composites of a
                     TreeDiagram, the coends of bbar and the ends of
                     co-W and, one per arity, the coefficient diagram
                     they share, kept as long as the object
  _closed_form       the closed-form bar, W and cobar terms and the
                     builder of their actions, each action built on its
                     first sigma_adj request; _top_cell_move and _top_nu
                     give the cube signs that bar and cobar share, both
                     read off the slot tables of cubes, as W's
                     composition reads mu on one pair of cells
                     (_mu_cell); with a filter on the labels of each
                     tree, the planar part R of bar that the command
                     line builds on a Sigma-free operad (planar_bar),
                     with no action
  _labelwise         bar_map and cobar_map: each closed-form label (t, x)
                     sent through a per-tree map
  _Engine            the slots and relations common to Coend and End;
                     the sum of the slots has labels (tree, label), so
                     each slot is read and written by its tag, and no
                     inclusion or projection maps are built; a Coend
                     relation sends (x, y) to (f x, y) - (x, g y) with
                     the diagram maps f and g, no tensor map built
  _hom_rule          (from chain) f -> post f pre on one label of a Hom
                     slot: the End relations and _end_map, _end_relabel
                     and _end_graft, so no slot map is built; hom_map,
                     its whole map, serves omega_sigma
  cobar_engine       the end of Hom(wbar(T), Q(T)) per arity, with
  closed_cobar_to_engine  the comparison iso from the closed cobar
  _cobar_value       the evaluation rule: the closed cobar label (T, x)
                     read on a cell of wbar(U) that is 0 on the edges E
                     is expansion_map(T, U)(x) when U/E = T, else 0
                     (closed_cobar_to_engine, _evaluate, epsilon_trivial)
  _end_map           ends mapped slot by slot through a _hom_rule per
                     slot, then factored by End.factor, the retraction
                     of the kernel times the map (the co-W covers; the
                     cobar engine in the tests)
  _end_relabel       the symmetric action on co-W (and on the cobar
                     engine, in the tests)
  _end_graft         the composition of co-W (and of the cobar engine,
                     in the tests): the interchange sign, then one
                     _hom_rule per pair of slots
  _coend_map         the covers and relabelings of bbar, each slot cell
                     moved on its own (cubes._move_family_cells)
  _evaluate          cobar elements read on family cells (the adjunction
                     transpose and theta_star), composed back into q by
                     q.compose_fragments, a window kept on q
The cube-level maps they use (relabelings, the unit-extended grafting
split, family transports) live in the cubes layer. Whole cube maps are
built only where a whole map is consumed: the face inclusions and
family covers of the engines' weight diagrams, and the relabelings,
face inclusions and splits that co-W feeds to _hom_rule. Everywhere else
one cell is moved and no map is built.

Sign conventions all reduce to Koszul reshuffles against the fixed
global orders declared in the cube and chain layers. Where a map is
classically defined through interval reversals, the reversal is folded
into the cube signs (_star_sign) once and for all; no complex here
carries a twisted differential.
"""
from __future__ import annotations

import functools
import itertools
import operator
from math import factorial

from .chain import (
    ChainComplex, ChainMap, _graded_basis, _hom_rule, _place, _placer, _sgn,
    cokernel_complex, direct_sum, hom_complex, hom_map, kernel_complex, shift,
    tensor_many, tensor_map_many,
)
# theta_cells is not called here: perfbench's tracer test reads the alias
from .cubes import (
    STAR, _chunks, _fam_ids, _id_image, _move_cell, _move_family_cells,
    _mu_cell, _nu_slots, _rel_tokens, _relabel_slots, _slots, _star_sign,
    _theta_cell_rule, _wbar_tokens, delta_cube, face_inclusion, family_cover,
    rel_delta, rel_delta_relabel, rel_split, theta_cells, wbar, wbar_family,
)
from .operads import (
    Cooperad, Operad, PreCooperad, _adjacent_family, _along_covers,
    _trivial_circ, _window, extend_cooperad, trivial_operad,
)
from .trees import (
    Tree, _graft_place, _partitions, _split_graft, _token_image,
    _vertex_arities, cluster_key, corolla, enumerate_trees, fragments, graft,
    split_at_block,
)


def _interleave_sign(xs, cs):
    """(-1)^(sum over j < k of xs[j] * cs[k]): the Koszul sign of moving
    each element x_j past the cells c_k to its right."""
    return _sgn(sum(x * sum(cs[j + 1:]) for j, x in enumerate(xs)))


def _tensor_vecs(field, a, b):
    """The tensor of two vectors keyed by label tuples."""
    out = {}
    for x, cx in a.items():
        for y, cy in b.items():
            out[x + y] = field.add(out.get(x + y, 0), cx * cy)
    return {l: c for l, c in out.items() if c}


# -- tree-indexed diagrams and their coends/ends --------------------------

class TreeDiagram:
    """A chain complex for every tree of trees (all of one arity) and a
    chain map for every cover relation t < u (one added edge) between
    them: covariant flavor maps term(t) -> term(u), contravariant maps
    term(u) -> term(t). A cover whose lower tree is not among trees is
    skipped; trees must hold every tree between two of its trees, so
    that the composites along covers stay inside (all trees of an arity,
    or the trees above one tree)."""

    def __init__(self, field, trees, flavor, term_fn, cover_fn):
        if flavor not in ("covariant", "contravariant"):
            raise ValueError("flavor must be covariant or contravariant")
        self.field = field
        self.n = trees[0].n
        self.flavor = flavor
        self.trees = trees
        self._terms = {t: term_fn(t) for t in self.trees}
        self.covers = []
        self._cover_maps = {}
        for u in self.trees:
            for e in u.edges():
                t = u.contract(e)
                if t not in self._terms:
                    continue
                f = cover_fn(t, u, e)
                lo, hi = (t, u) if flavor == "covariant" else (u, t)
                if f.source != self._terms[lo] or f.target != self._terms[hi]:
                    raise ValueError("cover map endpoints mismatch")
                self.covers.append((t, u))
                self._cover_maps[(t, u)] = f
        self._maps = _along_covers(self.term,
                                   lambda a, b, e: self.cover_map(a, b),
                                   flavor == "covariant")

    def term(self, t) -> ChainComplex:
        return self._terms[t]

    def cover_map(self, t, u) -> ChainMap:
        return self._cover_maps[(t, u)]

    def map(self, t, u) -> ChainMap:
        """Composite along any cover chain from t up to u (t <= u)."""
        if not t.leq(u):
            raise ValueError("map needs t <= u")
        return self._maps(t, u)

    def check_functorial(self):
        """ValueError unless both cover composites agree across every
        2-edge diamond t < mid < u."""
        for u in self.trees:
            for t in self.trees:
                new = u.clusters - t.clusters
                if not (t.leq(u) and len(new) == 2):
                    continue
                comps = []
                for first in sorted(new, key=cluster_key):
                    mid = u.contract(first)
                    a, b = self.cover_map(t, mid), self.cover_map(mid, u)
                    comps.append(a.then(b) if self.flavor == "covariant"
                                 else b.then(a))
                if comps[0] != comps[1]:
                    raise ValueError(
                        f"diagram not functorial between {t!r} and {u!r}")


def wbar_diagram(field, n) -> TreeDiagram:
    return TreeDiagram(field, enumerate_trees(n), "covariant",
                       lambda t: wbar(field, t),
                       lambda t, u, e: face_inclusion(field, "wbar", t, u))


def delta_diagram(field, n) -> TreeDiagram:
    return TreeDiagram(field, enumerate_trees(n), "covariant",
                       lambda t: delta_cube(field, t),
                       lambda t, u, e: face_inclusion(field, "delta", t, u))


def operad_diagram(p: Operad, n) -> TreeDiagram:
    return TreeDiagram(p.field, enumerate_trees(n), "contravariant",
                       lambda t: p.tree_complex(t),
                       lambda t, u, e: p.contract_map(u, e))


def precooperad_diagram(q: PreCooperad, n) -> TreeDiagram:
    return TreeDiagram(q.field, enumerate_trees(n), "covariant",
                       lambda t: q.term(t),
                       lambda t, u, e: q.cover_map(t, u, e))


class _Engine:
    """What Coend and End share: one complex per tree of the arity (the
    slots), their direct sum `total`, whose labels (t, label) address the
    slot at t by its tag, and the relations t < u of the preorder with
    the two diagram maps along each."""

    def __init__(self, weights: TreeDiagram, coeffs: TreeDiagram, slots):
        self.field = weights.field
        self.weights = weights
        self.coeffs = coeffs
        self.trees = weights.trees
        self.total = direct_sum(self.field,
                                [(t, slots[t]) for t in self.trees])

    def _relations(self, relations):
        """The relations (t, u) and the getters of the weight and
        coefficient maps along them: the covers, or every pair t < u as a
        test oracle."""
        w, c = self.weights, self.coeffs
        if relations == "covers":
            return w.covers, w.cover_map, c.cover_map
        return ([(t, u) for t in self.trees for u in self.trees
                 if t != u and t.leq(u)], w.map, c.map)


class Coend(_Engine):
    """Coend of weights (covariant) against coeffs (contravariant):
    cokernel of the difference map out of the cover (or all-relation)
    slots. Exposes the total sum, projection, and a degreewise section
    so maps can be induced out of the quotient."""

    def __init__(self, weights: TreeDiagram, coeffs: TreeDiagram,
                 relations="covers"):
        field = weights.field
        self.slots = {t: tensor_many(field, [weights.term(t), coeffs.term(t)])
                      for t in weights.trees}
        super().__init__(weights, coeffs, self.slots)
        pairs, wmap, cmap = self._relations(relations)
        summands = []
        for t, u in pairs:
            src = tensor_many(field, [weights.term(t), coeffs.term(u)])
            if src.total_dim() > 0:
                summands.append(((t, u), src))

        def rule(d, lab):
            # (x, y) -> (f x, y) in the slot at u minus (x, g y) at t
            (t, u), (x, y) = lab
            f, g = wmap(t, u), cmap(t, u)
            fx = f.image(x)
            gy = g.image(y)
            return ([((u, (x2, y)), c) for x2, c in fx.items()] +
                    [((t, (x, y2)), -c) for y2, c in gy.items()])

        self.rel = ChainMap.from_rule(direct_sum(field, summands), self.total,
                                      rule)
        self.complex, self.proj, self.sect = cokernel_complex(self.rel)

    def class_of(self, t, degree, vec):
        """Class in the coend of an element of the slot at t."""
        return self.proj.apply(degree, {(t, l): c for l, c in vec.items()})

    def map_out(self, G: ChainMap) -> ChainMap:
        """Induce a map coend -> Z from G: total -> Z killing the
        relations."""
        if not self.rel.then(G).is_zero():
            raise ValueError("map does not respect the coend relations")
        mats = {k: G.matrix(k) @ self.sect[k] for k in self.complex.degrees()}
        return ChainMap(self.complex, G.target, mats, degree=G.degree,
                        check=True)


class End(_Engine):
    """End of Hom(weights(T), coeffs(T)) over trees of one arity, both
    diagrams covariant: kernel of the difference map into the cover (or
    all-relation) slots."""

    def __init__(self, weights: TreeDiagram, coeffs: TreeDiagram,
                 relations="covers"):
        field = weights.field
        self.homs = {t: hom_complex(weights.term(t), coeffs.term(t))
                     for t in weights.trees}
        super().__init__(weights, coeffs, self.homs)
        pairs, wmap, cmap = self._relations(relations)
        summands = []
        legs = {}   # slot tree -> [(relation, rule out of its hom, negate)]
        for t, u in pairs:
            tgt = hom_complex(weights.term(t), coeffs.term(u))
            if tgt.total_dim() == 0:
                continue
            summands.append(((t, u), tgt))
            legs.setdefault(t, []).append(
                ((t, u), _hom_rule(post=cmap(t, u)), False))
            legs.setdefault(u, []).append(
                ((t, u), _hom_rule(pre=wmap(t, u)), True))

        def rule(d, lab):
            return [((key, l2), -c if negate else c)
                    for key, f, negate in legs.get(lab[0], ())
                    for l2, c in f(d, lab[1])]

        self.diff_map = ChainMap.from_rule(
            self.total, direct_sum(field, summands), rule)
        self.complex, self.incl, self.retr = kernel_complex(self.diff_map)

    def component(self, t) -> ChainMap:
        """The slot-t part of the kernel inclusion."""
        return ChainMap.from_rule(self.complex, self.homs[t], lambda d, l: [
            (h, c) for (T, h), c in self.incl.image(l).items()
            if T == t])

    def factor(self, G: ChainMap) -> ChainMap:
        """Factor G: X -> total landing in the end through the kernel
        inclusion: retr @ G in each degree, the mirror of
        Coend.map_out."""
        if not G.then(self.diff_map).is_zero():
            raise ValueError("map does not land in the end")
        mats = {k: self.retr[k + G.degree] @ G.matrix(k)
                for k in G.source.degrees() if k + G.degree in self.retr}
        return ChainMap(G.source, self.complex, mats, degree=G.degree,
                        check=True)


# -- the End-side skeleton shared by cobar and co-W -----------------------

def _end_map(e1: End, e2: End, comp) -> ChainMap:
    """The map of ends e1 -> e2 given slot by slot: comp[T] = (T2, f)
    with f a _hom_rule from e1.homs[T] to e2.homs[T2]; slots missing from
    comp go to 0."""
    def rule(d, lab):
        T2, f = comp.get(lab[0], (None, None))
        if f is None:
            return []
        return [((T2, h), c) for h, c in f(d, lab[1])]

    return e2.factor(e1.incl.then(ChainMap.from_rule(e1.total, e2.total,
                                                      rule)))


def _end_relabel(q: PreCooperad, e1: End, e2: End, sigma,
                 weight_relabel) -> ChainMap:
    """The action of sigma between ends, slot T going to T2 = sigma_* T:
    relabel q forward and the weights back, weight_relabel(T2, sigma^-1)
    being the weight map of T2 into the weight of T."""
    inv = {v: k for k, v in sigma.items()}
    comp = {}
    for T in e1.trees:
        if e1.homs[T].total_dim() == 0:
            continue
        T2 = T.relabel(sigma)
        comp[T] = (T2, _hom_rule(pre=weight_relabel(T2, inv),
                                 post=q.relabel_map(T, sigma)))
    return _end_map(e1, e2, comp)


def _end_graft(q: PreCooperad, i, e1: End, e2: End, ev: End, split,
               weight_split) -> ChainMap:
    """The composition e1 (x) e2 -> ev at input i. A slot V of ev splits
    as split(V) = (T, U) with graft(T, i, U) = V, or None; a pair of slot
    labels h1 = (a -> b), h2 = (c -> e) interchanges into the label
    (a, c) -> (b, e) of Hom(weight(T) (x) weight(U), q(T) (x) q(U)) with
    the sign (-1)^(|h2||a|), which then precomposes weight_split(V, T, U):
    weight(V) -> weight(T) (x) weight(U) and postcomposes the grafting
    multiplication of q."""
    field = q.field
    comp = {}
    for V in ev.trees:
        if ev.homs[V].total_dim() == 0:
            continue
        TU = split(V)
        if TU is None:
            continue
        T, U = TU
        if e1.homs[T].total_dim() == 0 or e2.homs[U].total_dim() == 0:
            continue
        comp[(T, U)] = (V, _hom_rule(pre=weight_split(V, T, U),
                                     post=q.m_map(T, i, U)))

    def rule(d, pair):
        l1, l2 = pair
        d1 = e1.complex.label_degree[l1]
        d2 = e2.complex.label_degree[l2]
        v2 = e2.incl.image(l2)
        out = []
        for (T, h1), c1 in e1.incl.image(l1).items():
            wT = e1.weights.term(T).label_degree
            for (U, h2), c2 in v2.items():
                V, f = comp.get((T, U), (None, None))
                if f is None:
                    continue
                cc = c1 * c2 * _sgn(e2.homs[U].label_degree[h2] * wT[h1[1]])
                h = ("h", (h1[1], h2[1]), (h1[2], h2[2]))
                out.extend(((V, h3), cc * c3)
                           for h3, c3 in f(d1 + d2, h))
        return out

    src = tensor_many(field, [e1.complex, e2.complex])
    return ev.factor(ChainMap.from_rule(src, ev.total, rule))


# -- bar construction -----------------------------------------------------

def _w_cell(t: Tree, S) -> tuple:
    return tuple(STAR if e in S else 1 for e in t.edges())


def _wbar_top(t: Tree) -> tuple:
    if t.n == 1:
        return ()
    return (STAR,) * (1 + t.num_edges)


def _closed_form(field, N, term, relabel, structure, decorations, boundary,
                 cube_move, labels=None):
    """The skeleton of the closed-form bar, W and cobar constructions. In
    arity n the basis is (t, *deco, x) in degree |x| + k, for the trees
    t, each (deco, k) in decorations(t) and the labels x of term(t); the
    rule boundary(plans, d, label) gives the differential, plans being a
    window over structure, which gives one plan per tree t: term(t) and
    the rules on one label that its differential reads, with their trees
    and signs, and builds no map (_contractions(p) for bar and W, the
    covers of t with their rules for cobar), so a label reads its tree's
    plan once; sigma acts on the tree term through relabel(t, sigma),
    read with t.relabel(sigma) once per tree from a window of the
    action's build, and on the decoration by cube_move(t, t2, sigma,
    deco) -> (the new decoration, its sign); a second window of the
    build keeps, per (tree, decoration), the relabeled head (t2, *deco2),
    the cube sign and the relabel map, so a label reads one tuple and
    applies one map. Returns (terms, the
    builder of the adjacent actions): no action is built here, each one
    is built when sigma_adj first asks for it.

    A filter labels(t), the pairs (x, |x|) kept of the labels of term(t),
    by default all of them, builds a sub-basis instead; its terms are
    complexes only if the boundary stays inside, which from_rule checks
    (planar_bar), and they carry no action."""
    if labels is None:
        def labels(t):
            return term(t).label_degree.items()
    terms = {}
    for n in range(1, N + 1):
        basis = _graded_basis(
            ((t,) + deco + (x,), dx + k) for t in enumerate_trees(n)
            for deco, k in decorations(t) for x, dx in labels(t))
        terms[n] = ChainComplex.from_rule(
            field, basis, functools.partial(boundary, _window(structure)))

    def act(n, sigma):
        trees = _window(lambda t: (t.relabel(sigma), relabel(t, sigma)))

        def move(t, *deco):
            t2, f = trees(t)
            deco2, ws = cube_move(t, t2, sigma, deco)
            return (t2,) + deco2, ws, f

        moves = _window(move)

        def rule(d, lab):
            head, ws, f = moves(*lab[:-1])
            return [(head + (x2,), ws * c)
                    for x2, c in f.image(lab[-1]).items()]
        return ChainMap.from_rule(terms[n], terms[n], rule)

    return terms, _adjacent_family(act)


def _contractions(p: Operad):
    """The plan of bar's and W's differentials on a tree t: (the tree
    complex of t, each edge e mapped to (the bar sign (-1)^k of the k-th
    edge, t/e, the contraction rule of p at e), in edge order, the bar
    sign (-1)^(vertices) of the internal differential). W reads its own
    signs off its marked edges."""
    return lambda t: (p.tree_complex(t), {
        e: (_sgn(k), t.contract(e), p.contract_rule(t, e))
        for k, e in enumerate(t.edges())}, _sgn(t.num_vertices))


def _top_cell_move(t, t2, sigma, deco):
    """The sign of sigma on the top cell of wbar(t): the action on the
    decoration-free closed forms, bar and cobar."""
    return (), _star_sign(_relabel_slots(_wbar_tokens(t), _wbar_tokens(t2),
                                         sigma))


def _top_nu(t, i, u):
    """The coefficient of top(t) (x) top(u) in nu_general of the top cell
    of graft(t, i, u): the cube sign of bar's decomposition and of
    cobar's composition. Every coordinate of a top cell is a star, so it
    is the sign of the whole nu move, and 1 when either side is the
    1-leaf tree."""
    if t.n == 1 or u.n == 1:
        return 1
    return _star_sign(_nu_slots(t, i, u))


def _bar_boundary(plans, d, lab):
    """The differential of bar on a label (t, x): the edge contractions
    and the internal differential, each with its bar sign."""
    t, x = lab
    tc, edges, s = plans(t)
    dx = tc.label_degree[x]
    out = []
    for se, t2, rule in edges.values():
        out.extend(((t2, x2), se * c) for x2, c in rule(dx, x))
    out.extend(((t, x2), s * c) for x2, c in tc.boundary_of(x).items())
    return out


def _bar_terms(p: Operad, N, labels=None):
    """The closed-form terms of bar, on the labels kept by the filter
    labels (all by default), and the builder of their actions."""
    return _closed_form(p.field, N, p.tree_complex, p.tree_relabel,
                        _contractions(p), lambda t: [((), t.num_vertices)],
                        _bar_boundary, _top_cell_move, labels)


def bar(p: Operad, N) -> Cooperad:
    """Bar construction: per arity a complex with basis (tree, label of
    the tree-shaped tensor of p), in degree = internal degree + number
    of vertices. The differential mixes edge contractions and the
    internal differential; the cooperad structure splits trees at a
    grafting edge."""
    field = p.field
    terms, adjacent = _bar_terms(p, N)

    def cocirc_builder(q, m, i, n):
        def rule(d, lab):
            v, x = lab
            sp = split_at_block(v, i, n)
            if sp is None:
                return []
            t, u = sp
            (xt, xu), s1 = p._ungraft_label(t, i, u, x)
            s2 = _sgn(u.num_vertices * sum(p._degrees(t, xt)))
            return [(((t, xt), (u, xu)), _top_nu(t, i, u) * s1 * s2)]

        return ChainMap.from_rule(q.term(m + n - 1), q.pair_complex(m, n),
                                  rule)

    return Cooperad(field, N, terms, adjacent, cocirc_builder,
                    name=f"bar({p.name})" if p.name else "bar")


def bar_dims(p: Operad, N) -> dict:
    """The graded dims of bar(p, N).term(n) for n <= N, read off the
    graded dims of the terms of p with no basis built: the sum over every
    tree with n leaves of the dims of its tree complex, shifted by its
    number of vertices. A tree is the partition of its leaves among the
    children of the root, of at least two blocks, and a tree on each
    block of two leaves or more, so the sum over the trees with n leaves
    is the sum over those partitions of term(number of blocks), shifted
    by one, times the sums over the trees on the blocks."""
    def times(a, b):
        out = {}
        for i, u in a.items():
            for j, v in b.items():
                out[i + j] = out.get(i + j, 0) + u * v
        return out

    dims = {1: {0: 1}}
    for n in range(2, N + 1):
        total = {}
        for blocks in _partitions(list(range(1, n + 1))):
            if len(blocks) < 2:
                continue
            part = {d + 1: v for d, v in p.term(len(blocks)).dims().items()}
            for b in blocks:
                part = times(part, dims[len(b)])
            for d, v in part.items():
                total[d] = total.get(d, 0) + v
        dims[n] = total
    return dims


def planar_bar(p: Operad, N, section) -> dict:
    """The complexes R(n), n <= N, of bar(p, N) on a planar section S of
    p (operads.planar_section): the labels (t, x) of bar(p, N).term(n)
    whose tree t has only intervals as clusters and whose every factor
    lies in S, with the differential of bar. On such a tree the children
    of a vertex sorted by their least leaf are in planar order, so
    contracting an edge composes two factors with no permutation after,
    and R(n) is closed under the differential because S is; from_rule
    checks it, raising ValueError on a label that leaves R(n), and checks
    d^2 = 0. bar(p, N).term(n) is the sum of the n! translates of R(n),
    so its dims and homology are n! times those of R(n): ValueError
    unless its dims, from bar_dims, are n! times those of R(n). R(n)
    has no action and no cocirc."""
    def labels(t):
        if any(max(c) - min(c) >= len(c) for c in t.clusters):
            return ()
        deg = p.tree_complex(t).label_degree
        return [(x, deg[x]) for x in itertools.product(
            *(section[a] for a in _vertex_arities(t)))]

    terms, _ = _bar_terms(p, N, labels)
    for n, full in bar_dims(p, N).items():
        copies = {d: factorial(n) * v for d, v in terms[n].dims().items()}
        if copies != full:
            raise ValueError(f"arity {n}: the bar complex has the dims "
                             f"{full}, not {factorial(n)} times the dims "
                             f"{terms[n].dims()} of its planar part")
    return terms


def bar_engine(p: Operad, n, relations="covers") -> Coend:
    return Coend(wbar_diagram(p.field, n), operad_diagram(p, n),
                 relations=relations)


def _closed_to_engine(eng: Coend, term, cell_of) -> ChainMap:
    """Send a closed-form label (t, ..., x) to the class in the engine of
    cell_of(label) (x) x in the slot at t."""
    return ChainMap.from_rule(term, eng.complex, lambda d, lab: list(
        eng.class_of(lab[0], d, {(cell_of(lab), lab[-1]): 1}).items()))


def closed_bar_to_engine(p: Operad, barq: Cooperad, eng: Coend) -> ChainMap:
    """The comparison iso from the closed-form bar term to the engine
    coend: send (t, x) to the class of (top cell of t) (x) x."""
    return _closed_to_engine(eng, barq.term(eng.weights.n),
                             lambda lab: _wbar_top(lab[0]))


def _labelwise(c1, c2, fam, N) -> dict:
    """The per-arity maps c1.term(n) -> c2.term(n) between two closed
    forms with labels (t, x): x goes through the per-tree map fam(t),
    label by label (bar_map, cobar_map)."""
    def rule(d, lab):
        t, x = lab
        return [((t, x2), c) for x2, c in fam(t).image(x).items()]

    return {n: ChainMap.from_rule(c1.term(n), c2.term(n), rule)
            for n in range(1, N + 1)}


def bar_map(p: Operad, p2: Operad, fam: dict, bp: Cooperad,
            bp2: Cooperad, N) -> dict:
    """Functoriality of bar on a per-arity family of operad maps: the
    tensor of fam over the vertices of each tree, from a window opened
    for this build."""
    return _labelwise(bp, bp2, _window(lambda t: tensor_map_many(
        p.field, [fam[a] for a in _vertex_arities(t)],
        source=p.tree_complex(t), target=p2.tree_complex(t))), N)


# -- W-construction -------------------------------------------------------

def w_construction(p: Operad, N) -> Operad:
    """W-construction: basis (tree, marked edge subset, label of the
    tree tensor of p); unmarked edges sit at interval value 1. Marked
    edges can be unmarked (value 1 face) or contracted (value 0 face,
    identified through the operad composition)."""
    field = p.field

    def decorations(t):
        return [((S,), r) for r in range(t.num_edges + 1)
                for S in itertools.combinations(t.edges(), r)]

    def boundary(plans, d, lab):
        t, S, x = lab
        tc, edges, _ = plans(t)
        dx = tc.label_degree[x]
        out = []
        for k, e in enumerate(S):
            s = _sgn(k)
            S2 = S[:k] + S[k + 1:]
            out.append(((t, S2, x), s))
            _, t2, rule = edges[e]
            out.extend(((t2, S2, x2), -s * c) for x2, c in rule(dx, x))
        s = _sgn(len(S))
        out.extend(((t, S, x2), s * c) for x2, c in tc.boundary_of(x).items())
        return out

    def marked_move(t, t2, sigma, deco):
        (S,) = deco
        S2 = tuple(sorted((_token_image(e, sigma) for e in S),
                          key=cluster_key))
        return (S2,), _star_sign(_relabel_slots(S, t2.edges(), sigma))

    terms, adjacent = _closed_form(
        field, N, p.tree_complex, p.tree_relabel, _contractions(p),
        decorations, boundary, marked_move)

    def circ_builder(q, m, i, n):
        def rule(d, pair):
            (t, S, x), (u, S2, y) = pair
            v = graft(t, i, u)
            cv, cmu = _mu_cell(t, i, u, _w_cell(t, S), _w_cell(u, S2))
            Sv = tuple(e for e, val in zip(v.edges(), cv) if val == STAR)
            z, s1 = p._graft_label(t, i, u, x, y)
            s2 = _sgn(sum(p._degrees(t, x)) * len(S2))
            return [((v, Sv, z), cmu * s1 * s2)]

        return ChainMap.from_rule(q.pair_complex(m, n), q.term(m + n - 1),
                                  rule)

    return Operad(field, N, terms, adjacent, circ_builder,
                  name=f"w({p.name})" if p.name else "w")


def w_engine(p: Operad, n, relations="covers") -> Coend:
    return Coend(delta_diagram(p.field, n), operad_diagram(p, n),
                 relations=relations)


def closed_w_to_engine(p: Operad, wp: Operad, eng: Coend) -> ChainMap:
    return _closed_to_engine(eng, wp.term(eng.weights.n),
                             lambda lab: _w_cell(lab[0], lab[1]))


def w_resolution(p: Operad, N):
    """The collapse eta: WP -> P (an operad map and quasi-iso) and the
    corolla inclusion zeta: P -> WP (a chain map family, not an operad
    map); eta o zeta = id. Arity 1 follows the same rules: the 1-leaf
    tree composes to the unit and its label has no factor."""
    wp = w_construction(p, N)

    def eta_rule(d, lab):
        t, S, x = lab
        if S:
            return []
        return list(p.compose_along_tree(t).image(x).items())

    etas, zetas = {}, {}
    for n in range(1, N + 1):
        etas[n] = ChainMap.from_rule(wp.term(n), p.term(n), eta_rule)
        cor = corolla(n)
        zetas[n] = ChainMap.from_rule(
            p.term(n), wp.term(n),
            lambda d, l, c=cor: [((c, (), (l,) * c.num_vertices), 1)])
    return wp, etas, zetas


# -- cobar construction ---------------------------------------------------

class CobarOperad(Operad):
    """Cobar of a pre-cooperad q in closed form: per arity the basis is
    (T, x), x a label of q(T), in degree |x| - #vertices(T). It keeps q,
    against which its elements are read on the cells of wbar
    (_cobar_value)."""

    def __init__(self, q, *args, **kwargs):
        self.q = q
        super().__init__(*args, **kwargs)


def cobar(q: PreCooperad, N) -> CobarOperad:
    """Cobar construction, the free operad on the desuspension of q: the
    differential is the internal one plus, for each cover u of t (u
    splits one vertex of t at the edge e), the image of the label under
    q.cover_rule(t, u, e), the rule of q.cover_map(t, u, e), which is the
    top-cell value of the wbar face at 0; sigma acts through
    q.relabel_map with the top-cell sign and the composition is the
    grafting multiplication of q with the nu sign of the top cells."""
    field = q.field

    def covers(t):
        return q.term(t), [
            (u, _sgn(u.edges().index(e)), q.cover_rule(t, u, e))
            for u, e in t.expansions()]

    def boundary(plans, d, lab):
        t, x = lab
        tc, covers = plans(t)
        dx = tc.label_degree[x]
        out = [((t, x2), c) for x2, c in tc.boundary_of(x).items()]
        s = _sgn(d + 1)
        for u, su, f in covers:
            out.extend(((u, x2), s * su * c) for x2, c in f(dx, x))
        return out

    terms, adjacent = _closed_form(
        field, N, q.term, q.relabel_map, covers,
        lambda t: [((), -t.num_vertices)], boundary, _top_cell_move)

    def circ_builder(op, m, i, n):
        mult = _window(lambda t, u: q.m_map(t, i, u))

        def rule(d, pair):
            (t, x), (u, y) = pair
            dy = q.term(u).label_degree[y]
            s = _top_nu(t, i, u) * _sgn((dy - u.num_vertices) * t.num_vertices)
            v = graft(t, i, u)
            img = mult(t, u).image((x, y))
            return [((v, z), s * c) for z, c in img.items()]

        return ChainMap.from_rule(op.pair_complex(m, n), op.term(m + n - 1),
                                  rule)

    return CobarOperad(q, field, N, terms, adjacent, circ_builder,
                       name=f"cobar({q.name})" if q.name else "cobar")


def cobar_engine(q: PreCooperad, n, relations="covers") -> End:
    """The end of Hom(wbar(T), q(T)) over the trees T of arity n: the
    engine the closed-form cobar is checked against."""
    return End(wbar_diagram(q.field, n), precooperad_diagram(q, n),
               relations=relations)


def _face_cell(t: Tree, u: Tree) -> tuple:
    """The cell of wbar(u) that is 0 on the edges of u missing from t
    (t <= u): the face inclusion of the top cell of t."""
    if u.n == 1:
        return ()
    return (STAR,) + tuple(STAR if e in t.clusters else 0 for e in u.edges())


def _cobar_value(q: PreCooperad, t: Tree, x, u: Tree, cell) -> dict:
    """The evaluation rule: the value in q(u) of the cobar label (t, x)
    read on the cell of wbar(u). The cell is the face of the top cell of
    u/E, E its edges at 0; the value is q.expansion_map(t, u)(x) when
    u/E = t, and 0 otherwise."""
    if not (t.leq(u) and cell == _face_cell(t, u)):
        return {}
    return q.expansion_map(t, u).image(x)


def closed_cobar_to_engine(q: PreCooperad, cb: CobarOperad,
                           eng: End) -> ChainMap:
    """The comparison iso from the closed-form cobar term to the engine
    end, inverse to reading the top cells: (t, x) goes to the end element
    whose value on each cell is given by _cobar_value."""
    def rule(d, lab):
        t, x = lab
        out = []
        for u in eng.trees:
            if t.leq(u):
                cell = _face_cell(t, u)
                out.extend(((u, ("h", cell, z)), c) for z, c in
                           _cobar_value(q, t, x, u, cell).items())
        return out

    return eng.factor(ChainMap.from_rule(cb.term(eng.weights.n), eng.total,
                                         rule))


def cobar_map(c1: CobarOperad, c2: CobarOperad, fam: dict, N) -> dict:
    """Functoriality of cobar on a per-tree family fam[T]: Q1(T) -> Q2(T)
    commuting with the structure of the two pre-cooperads, applied label
    by label."""
    return _labelwise(c1, c2, fam.__getitem__, N)


# -- the comparison W -> cobar(bar) ---------------------------------------

def _theta_cut(T: Tree, U: Tree):
    """The rule of theta_cells(T, U), the fragment trees of T over the
    vertices of U and the slot of each vertex of T in their
    concatenation; U <= T. theta reads it once per plan of (T, S)
    (_theta_plan), and theta_star opens one window of it."""
    frs = fragments(T, U)
    fts = [frs[v].tree for v in U.vertices()]
    order = [frs[v].to_global[w] for v, ft in zip(U.vertices(), fts)
             for w in ft.vertices()]
    at = {w: k for k, w in enumerate(order)}
    return _theta_cell_rule(T, U, frs), fts, [at[w] for w in T.vertices()]


def _theta_plan(p: Operad, T: Tree, S):
    """What theta reads on every label (T, S, x) of W(p), T.n > 1: the
    target tree U, the fragment trees with the label degrees of their
    tree complexes and their widths, the placer of the factors of x at
    their fragment slots, and
    the cells of theta_cells on (the cell of (T, S), the top cell of
    wbar(U)), each as its coefficient and, per fragment, the sum of the
    cube degrees of the fragments after it. The cells of W take the
    values 1 and * only (* on the edges of S), and theta_cells kills a
    fragment coordinate at 1 and a U-edge coordinate at *, so U is the
    one tree T with the edges of S contracted, no family cell has a zero
    coordinate and no fragment needs contracting."""
    U = Tree(T.n, T.clusters - frozenset(S))
    th, fts, slots = _theta_cut(T, U)
    cells = []
    for famcell, cth in th(None, (_w_cell(T, S), _wbar_top(U))):
        dcs = [wbar(p.field, ft).label_degree[c]
               for ft, c in zip(fts, famcell)]
        cells.append((cth, [sum(dcs[k + 1:]) for k in range(len(dcs))]))
    return (U, fts, [p.tree_complex(ft).label_degree for ft in fts],
            [ft.num_vertices for ft in fts],
            _placer([p.term(a) for a in _vertex_arities(T)], slots), cells)


def _theta_rule(p: Operad):
    """theta on a label (T, S, x) of W(p): the plan of (T, S), read from
    a window opened for the build, regroups the factors of x fragment by
    fragment into bar labels, which give the cobar label (U, classes),
    once per cell of the plan; per label only the Koszul sign of the
    regrouping and the interleave sign of each cell are computed."""
    plans = _window(functools.partial(_theta_plan, p))

    def rule(d, lab):
        T, S, x = lab
        if T.n == 1:
            return [((T, ()), 1)]
        U, fts, fdegs, widths, place, cells = plans(T, S)
        xr, s1 = place(x)
        chunks = _chunks(xr, widths)
        dxs = [g[c] for g, c in zip(fdegs, chunks)]
        classes = tuple(zip(fts, chunks))
        s2 = s1 * _sgn((d - len(S)) * U.num_vertices)
        return [((U, classes), cth * s2 * _sgn(sum(map(operator.mul, dxs,
                                                          after))))
                for cth, after in cells]

    return rule


def theta(p: Operad, N, wp: Operad = None, cb: CobarOperad = None):
    """The comparison map from the W-construction to the cobar of the
    bar: evaluate a marked tree against the top cube cell of each
    coarser tree via the cell-level pairing, then read the leftover
    fragments as bar labels. Returns (wp, cb, per-arity maps)."""
    if wp is None:
        wp = w_construction(p, N)
    if cb is None:
        cb = cobar(extend_cooperad(bar(p, N)), N)
    rule = _theta_rule(p)
    out = {n: ChainMap.from_rule(wp.term(n), cb.term(n), rule)
           for n in range(1, N + 1)}
    return wp, cb, out


# -- the trivial-structure comparison target ------------------------------

def omega_sigma(a, N) -> Operad:
    """Hom(wbar(corolla), suspension) with the trivial operad structure;
    the standard small model the cobar of a trivial input collapses to."""
    field = a.field
    terms = {1: hom_complex(wbar(field, corolla(1)), a.term(1))}
    sus = {}
    for n in range(2, N + 1):
        sus[n] = shift(a.term(n), 1)
        terms[n] = hom_complex(wbar(field, corolla(n)), sus[n])

    def adjacent(n, i):
        f = a.sigma_adj(n, i)
        sf = ChainMap(sus[n], sus[n],
                      {k + 1: f.matrix(k) for k in a.term(n).degrees()})
        return hom_map(terms[n], terms[n], post=sf)

    return Operad(field, N, terms, adjacent, _trivial_circ,
                  name=f"omega_sigma({a.name})" if a.name else "omega_sigma")


def flip_sharp(a, N, om: Operad) -> dict:
    """The family adjoint to the interval flip: a(n) -> Hom(wbar, Sigma
    a(n)), coefficient -1 on the single cube generator; om is
    omega_sigma(a, N)."""
    out = {1: ChainMap.from_rule(
        a.term(1), om.term(1),
        lambda d, l: [(("h", (), a.term(1).basis[0][0]), 1)])}
    for n in range(2, N + 1):
        out[n] = ChainMap.from_rule(
            a.term(n), om.term(n),
            lambda d, l: [(("h", (STAR,), l), -1)], degree=0)
    return out


def epsilon_trivial(a, N):
    """Read the cobar of the trivial operad on a on the top cell of the
    corolla, then project onto the corolla component of the bar classes.
    Returns (cb, om, per-arity maps)."""
    cb = cobar(extend_cooperad(bar(trivial_operad(a), N)), N)
    om = omega_sigma(a, N)
    q = cb.q
    ul = a.term(1).basis[0][0]
    eps = {1: ChainMap.from_rule(cb.term(1), om.term(1),
                                 lambda d, lab: [(("h", (), ul), 1)])}
    for n in range(2, N + 1):
        def rule(d, lab, cor=corolla(n)):
            cell = _wbar_top(cor)
            return [(("h", cell, qlab[0][1][0]), c) for qlab, c in
                    _cobar_value(q, lab[0], lab[1], cor, cell).items()
                    if qlab[0][0].is_corolla()]

        eps[n] = ChainMap.from_rule(cb.term(n), om.term(n), rule)
    return cb, om, eps


def _evaluate(cq: CobarOperad, fts, cells, elem, dxs, coeff) -> dict:
    """Read cobar elements on family cells: factor j is the element
    elem(j) of cq in arity fts[j].n and degree dxs[j], evaluated on the
    wbar cell cells[j] of the tree fts[j]. Returns the tensor of the
    q-values (label tuple -> coefficient), scaled by coeff and by the
    Koszul signs of moving the cells past the elements."""
    field = cq.field
    dcs = [wbar(field, ft).label_degree[c] for ft, c in zip(fts, cells)]
    acc = {(): coeff * _interleave_sign(dxs, dcs)}
    for j, ft in enumerate(fts):
        sw = _sgn(dcs[j] * dxs[j])
        val = {}
        for (t, x), c in elem(j).items():
            for z, cz in _cobar_value(cq.q, t, x, ft, cells[j]).items():
                val[(z,)] = field.add(val.get((z,), 0), c * cz * sw)
        acc = _tensor_vecs(field, acc, val)
        if not acc:
            break
    return acc


# -- the left adjoint of the cobar construction ---------------------------

class BbarPreCooperad(PreCooperad):
    """Left adjoint of cobar on an operad p: per tree, the coend of the
    fragment-family cubes against p over trees of the same arity."""

    def __init__(self, p: Operad, N):
        super().__init__(p.field, N,
                         name=f"bbar({p.name})" if p.name else "bbar")
        self.p = p
        self._coeffs = _window(lambda n: operad_diagram(p, n))
        self._coend = _window(self._build_coend)

    def coend_at(self, t: Tree) -> Coend:
        return self._coend(t)

    def _build_coend(self, t):
        """The coend over every tree of t's arity, not only the trees
        below t: a relation U < U2 with U <= t and U2 not <= t has the
        nonzero source wbar_family(t, U) (x) p(U2)."""
        field = self.field
        w = TreeDiagram(field, enumerate_trees(t.n), "covariant",
                        lambda U: wbar_family(field, t, U),
                        lambda U, U2, e: family_cover(field, t, U, U2, e))
        return Coend(w, self._coeffs(t.n))

    def _term(self, t):
        return self.coend_at(t).complex

    def _coend_map(self, t, t2, move) -> ChainMap:
        """coend_at(t) -> coend_at(t2) induced slot by slot: the slot
        element (cells, y) at U goes to the sum of the classes of the
        terms move(U, cells, y, d) = [(U2, (cells2, y2), coefficient)],
        each slot label at most once."""
        ce, ce2 = self.coend_at(t), self.coend_at(t2)

        def rule(d, lab):
            U, (cells, y) = lab
            return ce2.proj.apply(d, {(U2, key): c for U2, key, c
                                      in move(U, cells, y, d)}).items()

        return ce.map_out(ChainMap.from_rule(ce.total, ce2.complex, rule))

    def _cover_map(self, t, u, e):
        def move(U, cells, y, d):
            c2, cc = _move_family_cells(_fam_ids(t, U), cells, _fam_ids(u, U),
                                        lambda g: g)
            return [(U, (c2, y), cc)]

        return self._coend_map(t, u, move)

    def _relabel_map(self, t, sigma):
        t2 = t.relabel(sigma)
        weights = self.coend_at(t).weights
        rules = _window(lambda U: self.p._relabel_rule(U, sigma))

        def conv(g):
            return _id_image(g, lambda c: _token_image(c, sigma))

        def move(U, cells, y, d):
            U2 = U.relabel(sigma)
            c2, cc = _move_family_cells(_fam_ids(t, U), cells,
                                        _fam_ids(t2, U2), conv)
            dc = weights.term(U).label_degree[cells]
            return [(U2, (c2, y2), cc * cy)
                    for y2, cy in rules(U)(d - dc, y)]

        return self._coend_map(t, t2, move)

    def _m_map(self, t, i, u):
        field = self.field
        p = self.p
        v = graft(t, i, u)
        cet, ceu, cev = self.coend_at(t), self.coend_at(u), self.coend_at(v)
        src = tensor_many(field, [cet.complex, ceu.complex])
        # the fragment tokens of both blocks, as clusters of v
        t_img, u_img = _graft_place(t, i, u)

        def lift(ids, img):
            return [[_id_image(g, img.__getitem__) for g in toks]
                    for toks in ids]

        def rule(d, pair):
            U1, (c1, y1) = pair[0][2]
            U2, (c2, y2) = pair[1][2]
            V = graft(U1, i, U2)
            dy1 = p.tree_complex(U1).label_degree[y1]
            dc2 = ceu.weights.term(U2).label_degree[c2]
            s_ids = lift(_fam_ids(t, U1), t_img) + lift(_fam_ids(u, U2), u_img)
            cellsV, s_cells = _move_family_cells(
                s_ids, tuple(c1) + tuple(c2), _fam_ids(v, V), lambda g: g)
            yv, s_y = p._graft_label(U1, i, U2, y1, y2)
            coeff = _sgn(dy1 * dc2) * s_cells * s_y
            return list(cev.class_of(V, d, {(cellsV, yv): coeff}).items())

        return ChainMap.from_rule(src, cev.complex, rule)


def bbar(p: Operad, N) -> PreCooperad:
    return BbarPreCooperad(p, N)


# -- the adjunction between bbar and cobar --------------------------------

def transpose_to_precooperad(phi, bp: BbarPreCooperad, cq: CobarOperad):
    """Turn an operad map phi: p -> cobar(q), given per arity, into the
    corresponding family of maps bbar(p)(T) -> q(T), one per tree."""
    p, q = bp.p, cq.q
    out = {}
    for n in range(1, bp.N + 1):
        for T in enumerate_trees(n):
            ce = bp.coend_at(T)

            def rule(d, lab, T=T):
                U, (cells, y) = lab
                frs = fragments(T, U)
                fts = [frs[v].tree for v in U.vertices()]
                dys = [p.term(ft.n).label_degree[l] for ft, l in zip(fts, y)]
                vals = _evaluate(
                    cq, fts, cells,
                    lambda j: phi[fts[j].n].image(y[j]), dys, 1)
                if not vals:
                    return []
                return list(q.compose_fragments(T, U).apply(d, vals).items())

            G = ChainMap.from_rule(ce.total, q.term(T), rule)
            out[T] = ce.map_out(G)
    return out


def transpose_to_operad(psi, bp: BbarPreCooperad, cq: CobarOperad):
    """Turn a family psi: bbar(p)(T) -> q(T) of maps natural in the tree
    into the corresponding operad map p -> cobar(q), given per arity."""
    p = bp.p
    out = {}
    for n in range(1, bp.N + 1):
        def rule(d, x, n=n, tau=corolla(n)):
            res = []
            for V in enumerate_trees(n):
                c, dc = _wbar_top(V), V.num_vertices
                key = ((c,), (x,)) if n >= 2 else ((), ())
                vec = bp.coend_at(V).class_of(tau, dc + d, {key: 1})
                sw = _sgn(dc * d)
                res.extend(((V, z), cz * sw)
                           for z, cz in psi[V].apply(dc + d, vec).items())
            return res

        out[n] = ChainMap.from_rule(p.term(n), cq.term(n), rule)
    return out


# -- the co-W-construction ------------------------------------------------

class CoWPreCooperad(PreCooperad):
    """Co-W-construction on a pre-cooperad q: per tree, the end of the
    relative cubes against q over the trees above it."""

    def __init__(self, q: PreCooperad, N):
        super().__init__(q.field, N,
                         name=f"co_w({q.name})" if q.name else "co_w")
        self.q = q
        self._coeffs = _window(lambda n: precooperad_diagram(q, n))
        self._end = _window(self._build_end)

    def end_at(self, t: Tree) -> End:
        return self._end(t)

    def _build_end(self, t):
        """The end over the trees U >= t, which hold every cover out of
        one of them: at any other U the slot Hom(0, q(U)) is zero."""
        field = self.field
        w = TreeDiagram(
            field, [U for U in enumerate_trees(t.n) if t.leq(U)], "covariant",
            lambda U: rel_delta(field, U, t),
            lambda U, U2, e: face_inclusion(field, "i", (U, t), (U2, t)))
        return End(w, self._coeffs(t.n))

    def _term(self, t):
        return self.end_at(t).complex

    def _cover_map(self, t, u, e):
        field = self.field
        et, eu = self.end_at(t), self.end_at(u)
        comp = {U: (U, _hom_rule(
                    pre=face_inclusion(field, "j", (U, u), (U, t))))
                for U in et.trees if u.leq(U)}
        return _end_map(et, eu, comp)

    def _relabel_map(self, t, sigma):
        field = self.field
        t2 = t.relabel(sigma)
        return _end_relabel(
            self.q, self.end_at(t), self.end_at(t2), sigma,
            lambda U2, inv: rel_delta_relabel(field, U2, t2, inv))

    def _m_map(self, t, i, u):
        field = self.field
        v = graft(t, i, u)

        def split(V):
            T2, U2 = _split_graft(V, i, t.n, u.n)
            assert t.leq(T2) and u.leq(U2)
            return T2, U2

        return _end_graft(self.q, i, self.end_at(t), self.end_at(u),
                          self.end_at(v), split,
                          lambda V, T, U: rel_split(field, V, v, i, t, u))


def co_w(q: PreCooperad, N) -> CoWPreCooperad:
    return CoWPreCooperad(q, N)


def co_w_resolution(q: PreCooperad, N):
    """The termwise deformation retraction between q and its co-W-
    construction: eta expands against every vertex of the relative cube,
    zeta reads off the slot at the tree itself; zeta o eta = id."""
    cw = co_w(q, N)
    etas, zetas = {}, {}
    for n in range(1, N + 1):
        for t in enumerate_trees(n):
            en = cw.end_at(t)

            def rule(d, x, t=t, en=en):
                out = []
                for U in en.trees:
                    exp = q.expansion_map(t, U)
                    img = exp.image(x)
                    for c in en.weights.term(U).basis.get(0, ()):
                        out.extend(((U, ("h", c, y)), cy)
                                   for y, cy in img.items())
                return out

            G = ChainMap.from_rule(q.term(t), en.total, rule)
            etas[t] = en.factor(G)

            def zrule(d, hl, t=t):
                if hl[1] != ():
                    return []
                return [(hl[2], 1)]

            zetas[t] = en.component(t).then(ChainMap.from_rule(
                en.homs[t], q.term(t), zrule))
    return cw, etas, zetas


# -- comparison of the bar-cobar composite with the co-W-construction -----

def _theta_star_vertex(cq: CobarOperad, cuts, Vt: Tree, Ut: Tree, xt, rt):
    """One vertex of theta_star: the relative cell rt of the fragment Vt
    traded by the rule of theta_cells for a family cell over the bar tree
    Ut, and the cobar labels xt evaluated on it; cuts(Vt, Ut) is
    _theta_cut(Vt, Ut)."""
    field = cq.field
    th, wts, _ = cuts(Vt, Ut)
    dxs = cq._degrees(Ut, xt)
    step = {}
    for fc, cf in th(None, (rt, _wbar_top(Ut))):
        vals = _evaluate(cq, wts, fc, lambda j: {xt[j]: 1}, dxs, cf)
        for l, c in vals.items():
            step[l] = field.add(step.get(l, 0), c)
    return step


def _theta_star_rule(q: PreCooperad, cq: CobarOperad, T: Tree, en: End,
                     cuts):
    """theta_star at the tree T, on a label of extend(bar(cq))(T): one bar
    label (Ut, xt) per vertex t of T. cuts is the window of
    _theta_cut."""
    field = q.field
    if T.n == 1:
        ul = q.term(T).basis[0][0]
        return lambda d, lab: [((T, ("h", (), ul)), 1)]
    tvs = T.vertices()
    chs = {t: T.children(t) for t in tvs}

    def glob(t, lc):
        """The local cluster lc at the vertex t, in the leaves of T."""
        toks = (chs[t][j - 1] for j in lc)
        return frozenset().union(*({m} if isinstance(m, int) else m
                                   for m in toks))

    def rule(d, lab):
        # glue the local decorations into a global tree U above T
        U = Tree(T.n, list(T.clusters) + [glob(t, lc) for t, (Ut, _) in
                                          zip(tvs, lab) for lc in Ut.clusters])
        bdegs = [Ut.num_vertices + sum(cq._degrees(Ut, xt)) for Ut, xt in lab]
        upos = {g: k for k, g in enumerate(U.vertices())}
        res = {}
        for V in en.trees:
            if not U.leq(V):
                continue
            frs = fragments(V, T)
            fts = [frs[t].tree for t in tvs]
            ids = [frs[t].to_global[e] for t, ft in zip(tvs, fts)
                   for e in ft.edges()]
            slots = _slots(_rel_tokens(V, T), ids)
            widths = [ft.num_edges for ft in fts]
            rel = en.weights.term(V)
            for dr in rel.degrees():
                for r in rel.basis[dr]:
                    # cut the cell into the vertex cubes
                    coords, s_cut = _move_cell(r, slots, len(ids))
                    rts = _chunks(coords, widths)
                    drts = [rt.count(STAR) for rt in rts]
                    terms = {(): _sgn(dr * d) * s_cut *
                             _interleave_sign(bdegs, drts)}
                    for (Ut, xt), Vt, rt in zip(lab, fts, rts):
                        terms = _tensor_vecs(field, terms, _theta_star_vertex(
                            cq, cuts, Vt, Ut, xt, rt))
                        if not terms:
                            break
                    if not terms:
                        continue
                    # reorder the factors into the vertex order of U, then
                    # compose down to Q(V)
                    frsU = fragments(V, U)
                    gverts = [glob(t, w) for t, (Ut, _) in zip(tvs, lab)
                              for w in Ut.vertices()]
                    perm = [upos[g] for g in gverts]
                    cf = q.compose_fragments(V, U)
                    for l3, c3 in terms.items():
                        zd = [q.term(frsU[g].tree).label_degree[z]
                              for g, z in zip(gverts, l3)]
                        z2, s = _place(l3, zd, perm)
                        for zv, cz in cf.apply(sum(zd), {z2: c3 * s}).items():
                            k2 = (V, ("h", r, zv))
                            res[k2] = field.add(res.get(k2, 0), cz)
        return [(k, c) for k, c in res.items() if c]

    return rule


def theta_star(q: PreCooperad, N, cq: CobarOperad | None = None,
               bcq=None, cw: CoWPreCooperad | None = None):
    """Family of maps, one per tree, from the extension of bar(cobar(q))
    to co_w(q): the relative cube is cut into the vertex cubes, each cut
    piece is traded for a family cell, and the cobar factors are
    evaluated on those cells and composed back into q."""
    if cq is None:
        cq = cobar(q, N)
    if bcq is None:
        bcq = extend_cooperad(bar(cq, N))
    if cw is None:
        cw = co_w(q, N)
    # one window for the whole family: the fragment pairs (Vt, Ut) recur
    # across the trees T, and a window per T cuts 89 pairs 187 times on
    # com at arity 4
    cuts = _window(_theta_cut)
    out = {}
    for n in range(1, N + 1):
        for T in enumerate_trees(n):
            en = cw.end_at(T)
            G = ChainMap.from_rule(bcq.term(T), en.total,
                                   _theta_star_rule(q, cq, T, en, cuts))
            out[T] = en.factor(G)
    return out

"""Symmetric sequences, operads, cooperads and pre-cooperads.

Everything is reduced: the arity-1 term is the unit complex, and every
structure map with an arity-1 side is the unit law. The two lookups
build those maps themselves, SymSeq._structure for circ and cocirc and
PreCooperad.m_map for the grafting multiplications, so the builders of
the constructions only see arities >= 2.

Symmetric group actions are given through their adjacent
transpositions, each built on its first request, and composed on
demand as left actions (act(s)act(t) = act(st)), each permutation as
one product on the action of its prefix. Operads store the
partial compositions circ(m, i, n): term(m) (x) term(n) -> term(m+n-1)
in the consecutive-block convention matching trees.graft: the grafted
inputs become the block {i..i+n-1}.

Tree-shaped tensors p(T) = (x)_{vertices} term(arity) and their edge
contractions are derived from circ and the actions; pre-cooperads store
the dual tree-indexed data (expansions and grafting multiplications).
"""
from __future__ import annotations

import itertools
import weakref
from math import factorial

from .chain import (
    ChainComplex, ChainMap, _graded_basis, _place, _placer, dual_map,
    is_quasi_iso, k_complex, linear_dual, tensor_many, tensor_map_many,
    zero_complex,
)
from .trees import (
    Tree, _graft_slots, _vertex_arities, _vertex_relabel,
    adjacent_transposition, cluster_key, enumerate_trees, fragments, graft,
    perm_to_adjacents,
)


def graft_perm(sigma: dict, j: int, tau: dict) -> dict:
    """The permutation rho of {1..m+n-1} with
    graft(t, j, u).relabel(rho) = graft(t.relabel(sigma), sigma(j), u.relabel(tau))
    for sigma a permutation of t's m leaves and tau of u's n leaves."""
    m, n = len(sigma), len(tau)
    i = sigma[j]

    def embed(y):
        return y if y < i else y + n - 1

    rho = {}
    for x in range(1, m + n):
        if x < j:
            rho[x] = embed(sigma[x])
        elif x < j + n:
            rho[x] = i + tau[x - j + 1] - 1
        else:
            rho[x] = embed(sigma[x - n + 1])
    return rho


def _contraction(u: Tree, e, t: Tree):
    """How contracting the edge e of u into t = u/e merges e into its
    parent vertex v: (a, j, b, pi, order, k) with v of arity a, e its
    j-th input and of arity b, pi the permutation sorting the spliced
    inputs of the merged vertex, and order the vertices of t with the
    merged vertex replaced by v, e (so that v sits at position k)."""
    v = u.parent(e)
    ch = u.children(v)
    j = ch.index(e) + 1
    merged = t.children(v)
    spliced = ch[:j - 1] + u.children(e) + ch[j:]
    pi = {pos: merged.index(tok) + 1 for pos, tok in enumerate(spliced, 1)}
    order = []
    for w in t.vertices():
        order.extend([v, e] if w == v else [w])
    return len(ch), j, u.arity_of(e), pi, order, order.index(v)


def _window(build, maps=None):
    """The lookup key -> build(*key), each value built on its first
    request and kept in maps (a new dict by default) for later ones. It
    is the only memo of the package apart from the lru_caches of trees
    and cubes, and it serves three lifetimes:
      - every value built once and kept on an object (the actions, the
        tensor of each vertex-arity sequence and the structure maps of a
        symmetric sequence, the terms, expansions and fragment
        composites of a pre-cooperad, the coends of bbar, the ends of
        co-W, the composites of a tree diagram) is a window made with
        the object, read through the public method that returns it, and
        lives as long as the object; so is the coefficient diagram of
        each arity that all coends of bbar, or all ends of co-W, share,
        which only their builder reads;
      - a map build opens one for the structure maps of its trees or
        their rules (relabelings, each with its relabeled tree, the plan
        of each tree in the closed forms' differentials, which holds the
        contraction or cover rules of all its edges, products of
        pre-cooperads, the cuts of theta), so each of them is made once
        per build and read once per basis label, and the window is
        dropped after its build; rules are kept only in such a window,
        never on an object; cube cells are moved one at a time and need
        no window;
        theta_star opens one for its whole family of maps;
      - a window made with an object over a weakref.WeakValueDictionary
        keeps a value only while something else holds it: the merge maps
        of an operad and the split maps of an extended cooperad are
        shared by the rules that read them, and dropped with the last of
        those rules at the end of the build that made them."""
    maps = {} if maps is None else maps

    def get(*key):
        f = maps.get(key)
        if f is None:
            f = maps[key] = build(*key)
        return f

    return get


def _merge_rule(factors, slots, k, pair):
    """The rule merging one edge on a label x: place the factors of x at
    slots with their Koszul sign (factors holds the complex of each
    factor), then send factors k and k+1 through pair. Operad.contract_rule
    and PreCooperad.compose_fragments read it."""
    place = _placer(factors, slots)

    def rule(d, x):
        y, s = place(x)
        return [(y[:k] + (l,) + y[k + 2:], s * c)
                for l, c in pair.image(y[k:k + 2]).items()]

    return rule


def _unwrap(source, target) -> ChainMap:
    """source -> target sending a label (x,) of one factor to x and the
    empty label () to the unit label of target: the composites along a
    tree or a fragment family of at most one vertex."""
    return ChainMap.from_rule(source, target, lambda d, l: [
        (l[0] if l else target.basis[0][0], 1)])


def _adjacent_family(build):
    """The action builder (n, i) -> build(n, s) of a construction, s the
    adjacent transposition (i, i+1) of {1..n}. Nothing is built here:
    SymSeq.sigma_adj calls it for an action on its first request."""
    return lambda n, i: build(n, adjacent_transposition(n, i))


def _prebuilt(adjacents):
    """The action builder that reads a dict of prebuilt maps keyed
    (n, i), as a `file:` spec gives them; None for an action the dict
    lacks."""
    return lambda n, i: adjacents.get((n, i))


class SymSeq:
    """Arity-indexed chain complexes with symmetric group actions,
    truncated at a fixed maximum arity N. adjacent(n, i) builds the
    action of s_i on a nonzero term(n), or returns None when there is
    none; sigma_adj calls it once per action, on its first request."""

    def __init__(self, field, N, terms, adjacent, name=""):
        if N < 1:
            raise ValueError("max arity must be >= 1")
        self.field = field
        self.N = N
        self.name = name
        self._terms = dict(terms)
        self._adjacent = _window(adjacent)
        one = self._terms.get(1)
        if one is None or one.dims() != {0: 1}:
            raise ValueError("reduced: the arity-1 term must be the unit")
        self._acts = _window(self._act)
        self._tensors = _window(lambda *arities: tensor_many(
            field, [self.term(a) for a in arities]))

    @property
    def unit_label(self):
        return self.term(1).basis[0][0]

    def term(self, n) -> ChainComplex:
        if not 1 <= n <= self.N:
            raise ValueError(f"arity {n} out of range 1..{self.N}")
        c = self._terms.get(n)
        return c if c is not None else zero_complex(self.field)

    def pair_complex(self, m, n) -> ChainComplex:
        """term(m) (x) term(n): the tensor side of every circ(m, i, n) or
        cocirc(m, i, n), and the tree_complex of every two-vertex tree
        with vertex arities (m, n), the same object."""
        return self._tensors(m, n)

    def sigma_adj(self, n, i) -> ChainMap:
        """The action of s_i on term(n): the zero map on a zero term,
        otherwise built on its first request and kept."""
        t = self.term(n)
        if t.total_dim() == 0:
            return ChainMap.zero(t, t)
        f = self._adjacent(n, i) if 1 <= i < n else None
        if f is None:
            raise ValueError(f"missing action of s_{i} in arity {n}")
        return f

    def act(self, n, perm) -> ChainMap:
        """The action of the permutation perm of {1..n} on term(n), built
        once and kept: the product of the actions of the adjacent
        transpositions of perm_to_adjacents(perm), left to right."""
        return self._acts(n, tuple(perm[k] for k in range(1, n + 1)))

    def _act(self, n, images):
        """The identity for the identity permutation; otherwise, with j
        the last letter of the word w of perm_to_adjacents, the action of
        s_j o perm (whose word is w without j, as bubble-sort words are
        prefix-closed) read from the window, then s_j: one product."""
        word = perm_to_adjacents(dict(enumerate(images, 1)))
        if not word:
            return ChainMap.identity(self.term(n))
        j = word[-1]
        s = adjacent_transposition(n, j)
        return self._acts(n, tuple(s[k] for k in images)).then(
            self.sigma_adj(n, j))

    def _structure(self, name, builder, into_top):
        """The lookup (m, i, n) -> the structure map name(m, i, n) between
        term(m) (x) term(n) and term(m+n-1), into term(m+n-1) when
        into_top (circ) and out of it otherwise (cocirc): ValueError out
        of range, the zero map when either side is zero, the unit law
        when m or n is 1 (x (x) u -> x and u (x) y -> y for circ, x ->
        x (x) u and y -> u (x) y for cocirc, u the unit label), and
        otherwise builder(self, m, i, n), built once. So a builder is
        only called with m, n >= 2."""
        def build(m, i, n):
            src = self.pair_complex(m, n)
            tgt = self.term(m + n - 1)
            if not into_top:
                src, tgt = tgt, src
            if src.total_dim() == 0 or tgt.total_dim() == 0:
                return ChainMap.zero(src, tgt)
            if n == 1 or m == 1:
                u, keep = self.unit_label, 0 if n == 1 else 1

                def unit(d, lab):
                    if into_top:
                        return [(lab[keep], 1)]
                    return [((lab, u) if n == 1 else (u, lab), 1)]

                return ChainMap.from_rule(src, tgt, unit)
            return builder(self, m, i, n)

        maps = _window(build)

        def get(m, i, n):
            if not (1 <= i <= m and m + n - 1 <= self.N):
                raise ValueError(f"{name}({m},{i},{n}) out of range")
            return maps(m, i, n)

        return get

    def _degrees(self, t: Tree, labels):
        """The degree of each factor of a label of tree_complex(t)."""
        return [self.term(a).label_degree[l]
                for a, l in zip(_vertex_arities(t), labels)]

    def _graft_label(self, t: Tree, i: int, u: Tree, x, y):
        """Labels x of tree_complex(t) and y of tree_complex(u) as one
        label of tree_complex(graft(t, i, u)), with its Koszul sign."""
        _, slots = _graft_slots(t, i, u)
        return _place(x + y, self._degrees(t, x) + self._degrees(u, y), slots)

    def _ungraft_label(self, t: Tree, i: int, u: Tree, z):
        """Inverse of _graft_label: ((x, y), sign)."""
        v, slots = _graft_slots(t, i, u)
        back = sorted(range(len(slots)), key=slots.__getitem__)
        xy, sgn = _place(z, self._degrees(v, z), back)
        return (xy[:t.num_vertices], xy[t.num_vertices:]), sgn

    def tree_complex(self, t: Tree) -> ChainComplex:
        """(x)_{vertices of t} term(arity), factors in global vertex order,
        basis labels = tuples aligned with t.vertices(). It depends only
        on the vertex arities of t, so it is built once per arity
        sequence and shared by every tree with that sequence."""
        return self._tensors(*_vertex_arities(t))

    def tree_relabel(self, t: Tree, sigma) -> ChainMap:
        """The action tree_complex(t) -> tree_complex(sigma_* t), built
        from _relabel_rule."""
        return ChainMap.from_rule(self.tree_complex(t),
                                  self.tree_complex(t.relabel(sigma)),
                                  self._relabel_rule(t, sigma))

    def _relabel_rule(self, t: Tree, sigma):
        """The rule of tree_relabel(t, sigma) on one label x of
        tree_complex(t): relabel each factor through its local leaf
        permutation, then place the factors at their vertices of
        sigma_* t with the Koszul sign."""
        moves = _vertex_relabel(t, t.relabel(sigma), sigma)
        acts = [self.act(len(loc), loc) for loc, _ in moves]
        place = _placer([f.source for f in acts], [pos for _, pos in moves])

        def rule(d, x):
            out = []
            for combo in itertools.product(*(
                    f.image(l).items() for f, l in zip(acts, x))):
                lab, c = place([l for l, _ in combo])
                for _, ck in combo:
                    c *= ck
                out.append((lab, c))
            return out

        return rule


class Operad(SymSeq):
    def __init__(self, field, N, terms, adjacent, circ_builder, name=""):
        super().__init__(field, N, terms, adjacent, name=name)
        self._circ = self._structure("circ", circ_builder, True)
        self._along_trees = _window(self._compose_along_tree)
        self._merges = _window(self._merge, weakref.WeakValueDictionary())

    def circ(self, m, i, n) -> ChainMap:
        """term(m) (x) term(n) -> term(m+n-1), grafting at input i."""
        return self._circ(m, i, n)

    def contract_map(self, t: Tree, e) -> ChainMap:
        """tree_complex(t) -> tree_complex(t/e), the map of
        contract_rule(t, e)."""
        return ChainMap.from_rule(self.tree_complex(t),
                                  self.tree_complex(t.contract(e)),
                                  self.contract_rule(t, e))

    def contract_rule(self, t: Tree, e):
        """The rule of contract_map(t, e) on one label of tree_complex(t):
        place the factors in the vertex order of t/e with the merged
        vertex split into v, e (with the Koszul sign), then compose the
        two factors meeting at e and resort the merged vertex's inputs,
        through the merge map of the window."""
        a, j, b, pi, order, k = _contraction(t, e, t.contract(e))
        return _merge_rule([self.term(n) for n in _vertex_arities(t)],
                           [order.index(w) for w in t.vertices()], k,
                           self._merges(a, j, b, tuple(pi.values())))

    def _merge(self, a, j, b, images):
        """circ(a, j, b) followed by the action of the permutation
        k -> images[k-1] on term(a+b-1)."""
        return self.circ(a, j, b).then(self._acts(a + b - 1, images))

    def compose_along_tree(self, t: Tree) -> ChainMap:
        """tree_complex(t) -> term(arity): contract the first edge e of
        t, then compose along t/e, read from the window (the order of the
        edges is irrelevant by associativity, which the tests certify).
        A tree without edges maps its one factor, or the () of the 1-leaf
        tree, to term(arity)."""
        return self._along_trees(t)

    def _compose_along_tree(self, t):
        if not t.edges():
            return _unwrap(self.tree_complex(t), self.term(t.n))
        e = t.edges()[0]
        return self.contract_map(t, e).then(
            self.compose_along_tree(t.contract(e)))


class Cooperad(SymSeq):
    def __init__(self, field, N, terms, adjacent, cocirc_builder, name=""):
        super().__init__(field, N, terms, adjacent, name=name)
        self._cocirc = self._structure("cocirc", cocirc_builder, False)

    def cocirc(self, m, i, n) -> ChainMap:
        """term(m+n-1) -> term(m) (x) term(n), de-grafting at input i."""
        return self._cocirc(m, i, n)


# -- built-in operads -----------------------------------------------------

def builtin_operad(name, field, N) -> Operad:
    if name == "com":
        terms = {n: k_complex(field, 0, "e") for n in range(1, N + 1)}
        adjacent = _adjacent_family(lambda n, s: ChainMap.identity(terms[n]))

        def circ_builder(p, m, i, n):
            return ChainMap.from_rule(
                p.pair_complex(m, n), p.term(m + n - 1),
                lambda d, tup: [("e", 1)])

        return Operad(field, N, terms, adjacent, circ_builder, name="com")
    if name == "ass":
        terms = {n: ChainComplex(
            field, {0: sorted(itertools.permutations(range(1, n + 1)))}, {})
            for n in range(1, N + 1)}
        adjacent = _adjacent_family(lambda n, s: ChainMap.from_rule(
            terms[n], terms[n], lambda d, w: [(tuple(s[x] for x in w), 1)]))

        def circ_builder(p, m, i, n):
            def splice(tup):
                w, v = tup
                out = []
                for a in w:
                    if a < i:
                        out.append(a)
                    elif a == i:
                        out.extend(x + i - 1 for x in v)
                    else:
                        out.append(a + n - 1)
                return tuple(out)

            return ChainMap.from_rule(
                p.pair_complex(m, n), p.term(m + n - 1),
                lambda d, tup: [(splice(tup), 1)])

        return Operad(field, N, terms, adjacent, circ_builder, name="ass")
    raise ValueError(f"unknown built-in operad {name!r}")


def trivial_operad(a: SymSeq) -> Operad:
    """The operad on a symmetric sequence with zero compositions (apart
    from the unit law)."""
    return Operad(a.field, a.N, a._terms, a.sigma_adj, _trivial_circ,
                  name=f"trivial({a.name})" if a.name else "trivial")


def _trivial_circ(p, m, i, n) -> ChainMap:
    """The zero composition between arities >= 2."""
    return ChainMap.zero(p.pair_complex(m, n), p.term(m + n - 1))


def _free_relabel_rule(a: SymSeq, sigma):
    """The action of sigma on labels (t, x), x a label of
    a.tree_complex(t): the free operad's actions and the free
    pre-cooperad's relabelings. It reads a._relabel_rule through one
    window, so each tree's rule is made once per map build."""
    rules = _window(lambda t: a._relabel_rule(t, sigma))

    def rule(d, lab):
        t, x = lab
        t2 = t.relabel(sigma)
        return [((t2, x2), c) for x2, c in rules(t)(d, x)]

    return rule


def _free_graft_rule(a: SymSeq, i: int):
    """Grafting at input i on pairs of labels (t, x), (u, y) as above:
    the free operad's composition and the free pre-cooperad's
    multiplication."""
    def rule(d, pair):
        (t, x), (u, y) = pair
        lab, sgn = a._graft_label(t, i, u, x, y)
        return [((graft(t, i, u), lab), sgn)]

    return rule


def free_operad(a: SymSeq, N) -> Operad:
    """Free operad: term(n) = sum over trees of the tree-shaped tensors
    of a, composition by grafting, actions by relabeling."""
    field = a.field
    terms = {}
    for n in range(1, N + 1):
        basis = _graded_basis(
            ((t, l), d) for t in enumerate_trees(n)
            for l, d in a.tree_complex(t).label_degree.items())

        def rule(d, lab):
            t, l = lab
            c = a.tree_complex(t)
            return [((t, l2), v) for l2, v in c.boundary_of(l).items()]

        terms[n] = ChainComplex.from_rule(field, basis, rule)

    adjacent = _adjacent_family(lambda n, s: ChainMap.from_rule(
        terms[n], terms[n], _free_relabel_rule(a, s)))

    def circ_builder(p, m, i, n):
        return ChainMap.from_rule(p.pair_complex(m, n), p.term(m + n - 1),
                                  _free_graft_rule(a, i))

    return Operad(field, N, terms, adjacent, circ_builder,
                  name=f"free({a.name})" if a.name else "free")


def truncate(p: Operad, n: int) -> Operad:
    """Arity truncation: the terms above n are zeroed."""
    if not 1 <= n <= p.N:
        raise ValueError("truncation arity out of range")
    terms = {k: c for k, c in p._terms.items() if k <= n}
    return Operad(p.field, p.N, terms, p.sigma_adj,
                  lambda q, m, i, k: p.circ(m, i, k), name=f"{p.name}|<={n}")


# -- planar sections ------------------------------------------------------

def _free_orbits(p: Operad, k):
    """Each basis label of term(k) mapped to the first label, in basis
    order, of its Sigma_k-orbit; None unless every sigma_adj(k, i) sends
    each label to one label times a nonzero scalar and every orbit has k!
    labels."""
    c = p.term(k)
    gens = [p.sigma_adj(k, i) for i in range(1, k)]
    first = {}
    for x in (x for d in c.degrees() for x in c.basis[d]):
        if x in first:
            continue
        first[x] = x
        orbit = [x]
        for y in orbit:     # the loop reads the labels it appends
            for g in gens:
                img = g.image(y)
                if len(img) != 1:
                    return None
                (z,) = img
                if z not in first:
                    first[z] = x
                    orbit.append(z)
        if len(orbit) != factorial(k):
            return None
    return first


def planar_section(p: Operad, N):
    """A planar section of p up to arity N, or None: for each arity k,
    the list S(k) of basis labels of term(k) holding one label of each
    Sigma_k-orbit, closed under the compositions of its members and
    under the differential. It needs p Sigma-free: every sigma_adj(k, i)
    sends each basis label to one label times a nonzero scalar, and
    every orbit has k! labels (_free_orbits); otherwise it is None.

    S(1) is the unit. S(k) first takes every label in the support of
    circ(a, j, b)(s (x) s') for s in S(a), s' in S(b), a + b - 1 = k and
    j in 1..a, then the first label, in basis order, of each orbit not
    yet hit. Two labels of S(k) in one orbit, or a differential leaving
    the span of S(k), give None.

    On a section, the labels of bar(p, N).term(n) whose tree has only
    intervals as clusters and whose every factor lies in S span a
    subcomplex R(n) (barcobar.planar_bar) that meets each Sigma_n-orbit
    of labels once, so bar(p, N).term(n) is the direct sum of the n!
    complexes sigma R(n): Loday and Vallette, Algebraic Operads, ch. 5,
    P = P_ns (x) k[Sigma] with P_ns spanned by S."""
    S = {1: [p.unit_label]}
    for k in range(2, N + 1):
        first = _free_orbits(p, k)
        if first is None:
            return None
        hit = {}    # the first label of an orbit -> its label in S(k)
        for a in range(2, k):
            b = k + 1 - a
            for j in range(1, a + 1):
                f = p.circ(a, j, b)
                for s in S[a]:
                    for s2 in S[b]:
                        for x in f.image((s, s2)):
                            if hit.setdefault(first[x], x) != x:
                                return None
        for x in first.values():
            hit.setdefault(x, x)
        S[k] = list(hit.values())
        span, c = set(S[k]), p.term(k)
        if any(y not in span for x in S[k] for y in c.boundary_of(x)):
            return None
    return S


# -- axiom checking -------------------------------------------------------

def _equivariance_fails(p: Operad, m, n, circs, triples) -> list:
    """The name "equivariance (m,j,n)" once for each (sigma, tau, st) of
    triples and each j that breaks circ(m, j, n) then rho(sigma, j, tau)
    = st then circ(m, sigma(j), n), where st is the action of
    sigma (x) tau on term(m) (x) term(n) and circs[j] = circ(m, j, n)."""
    return [f"equivariance ({m},{j},{n})"
            for sigma, tau, st in triples for j in range(1, m + 1)
            if circs[j].then(p.act(m + n - 1, graft_perm(sigma, j, tau)))
            != st.then(circs[sigma[j]])]


def _associativity_fails(p: Operad, triples, every):
    """The name of each associativity identity that some basis triple
    (x, y, z) of term(m) (x) term(n) (x) term(q) breaks, for (m, n, q) in
    triples: every slot (i, j) of the sequential identity
    (x o_i y) o_{i+j-1} z = x o_i (y o_j z) and (i, k), i < k, of the
    parallel one (x o_i y) o_{k+n-1} z = (-1)^{|y||z|} (x o_k z) o_i y
    when every, otherwise the slots (1, 1) and (1, 2) alone. Each side is
    one image, the first composition, applied by the second composition's
    ChainMap.apply; the image of (x, y) under circ(m, i, n) is read once
    and shared by every z and every slot."""
    for m, n, q in triples:
        seq = [(i, j) for i in range(1, m + 1) for j in range(1, n + 1)]
        par = [(i, k) for i in range(1, m + 1) for k in range(i + 1, m + 1)]
        if not every:
            seq, par = seq[:1], par[:1]
        lefts = {i: p.circ(m, i, n) for i, _ in seq + par}
        slots = [(f"sequential associativity ({m},{i},{n},{j},{q})", i,
                  p.circ(m + n - 1, i + j - 1, q), p.circ(n, j, q),
                  p.circ(m, i, n + q - 1), False) for i, j in seq]
        slots += [(f"parallel associativity ({m},{i},{k})", i,
                   p.circ(m + n - 1, k + n - 1, q), p.circ(m, k, q),
                   p.circ(m + q - 1, i, n), True) for i, k in par]
        bn = p.term(n).label_degree.items()
        bq = p.term(q).label_degree.items()
        for x, dx in p.term(m).label_degree.items():
            for y, dy in bn:
                xy = {i: f.image((x, y)) for i, f in lefts.items()}
                for z, dz in bq:
                    d = dx + dy + dz
                    for name, i, outer, inner, last, parallel in slots:
                        if parallel:
                            s = -1 if dy * dz % 2 else 1
                            rhs = {(v, y): s * c
                                   for v, c in inner.image((x, z)).items()}
                        else:
                            rhs = {(x, v): c
                                   for v, c in inner.image((y, z)).items()}
                        if last.apply(d, rhs) != outer.apply(
                                d, {(w, z): c for w, c in xy[i].items()}):
                            yield name


def check_operad_axioms(p: Operad) -> list:
    """All operad identities up to the max arity of p that an input can
    break; returns the sorted list of failing identity names (empty =
    pass). They are read in the order relations of the Sigma-actions,
    equivariance, associativity, and only the nonzero arities enter. The
    unit law is not read: SymSeq rejects an arity-1 term that is not the
    unit, and builds every circ with an arity-1 side as the unit law.

    Equivariance is read on the generators (s_i, 1) and (1, s_k) of
    Sigma_m x Sigma_n, (m - 1) + (n - 1) tensor builds per (m, n), and
    that decides it for all m! n! pairs:
      - the involution, braid and commuting relations are a
        presentation of Sigma_n, so when they hold, act(n, .) is a
        homomorphism: act(n, pi o pi') = act(n, pi') then act(n, pi);
      - graft_perm composes: rho(sigma sigma', j, tau tau') =
        rho(sigma, sigma'(j), tau) o rho(sigma', j, tau');
      - so the pairs (sigma, tau) that pass at every j are closed under
        products, and the generators pass only if every pair does.
    An (m, n) whose generators fail, and every (m, n) when a relation
    has failed (a broken relation voids the homomorphism), is read on all
    m! n! pairs as well.

    Associativity is read on every basis triple at the slots (1, 1) of
    the sequential and (1, 2) of the parallel identity alone when no
    identity has failed before it, and that decides every slot. Take
    sigma in Sigma_m with sigma(1) = i (for the parallel identity also
    sigma(2) = k) and tau in Sigma_n with tau(1) = j, and write rho for
    graft_perm and 1_r for the identity of Sigma_r. Equivariance moves
    sigma x, tau y through each composite, and the block identities
      - rho(rho(sigma, 1, 1_n), j, 1_q) = rho(sigma, 1, 1_{n+q-1}) for
        j <= n,
      - rho(rho(sigma, 1, 1_n), n+1, 1_q) = rho(rho(sigma, 2, 1_q), 1, 1_n)
        when sigma(1) < sigma(2),
      - rho(rho(1_m, i, tau), i, 1_q) = rho(1_m, i, rho(tau, 1, 1_q)),
    with act a homomorphism, make both sides of the identity at (i, j)
    on (sigma x, tau y, z) the one action applied to the two sides at
    (1, 1) on (x, y, z), and likewise (i, k) against (1, 2), with the
    same sign (-1)^{|y||z|}. The actions are invertible and the
    identities linear, so the two slots hold on every triple only if
    every slot does. When anything failed before, or the two slots find
    a failure, every slot of every triple is read, so the list names
    every slot that breaks, the same on every input."""
    N = p.N
    F = p.field
    fails = []

    # a zero term has no basis label and only zero maps, so only the
    # nonzero arities enter the identities below
    live = sorted(n for n, c in p._terms.items()
                  if 2 <= n <= N and c.total_dim() > 0)
    for n in live:
        gens = [p.sigma_adj(n, i) for i in range(1, n)]
        ident = ChainMap.identity(p.term(n))
        for i, s in enumerate(gens):
            if s.then(s) != ident:
                fails.append(f"involution s_{i + 1} arity {n}")
            if i + 1 < len(gens):
                t = gens[i + 1]
                if s.then(t).then(s) != t.then(s).then(t):
                    fails.append(f"braid s_{i + 1} arity {n}")
            for jj in range(i + 2, len(gens)):
                t = gens[jj]
                if s.then(t) != t.then(s):
                    fails.append(f"commuting s_{i + 1} s_{jj + 1} arity {n}")

    relation_failed = bool(fails)
    for m in live:
        for n in live:
            if m + n - 1 not in live:
                continue
            circs = {j: p.circ(m, j, n) for j in range(1, m + 1)}
            src = circs[1].source
            ids = [ChainMap.identity(p.term(k)) for k in (m, n)]

            def tensor(f, g):
                return tensor_map_many(F, [f, g], source=src, target=src)

            def generators():
                one_m = {k: k for k in range(1, m + 1)}
                one_n = {k: k for k in range(1, n + 1)}
                for i in range(1, m):
                    yield (adjacent_transposition(m, i), one_n,
                           tensor(p.sigma_adj(m, i), ids[1]))
                for k in range(1, n):
                    yield (one_m, adjacent_transposition(n, k),
                           tensor(ids[0], p.sigma_adj(n, k)))

            if not (relation_failed or _equivariance_fails(
                    p, m, n, circs, generators())):
                continue
            perms_m = [dict(zip(range(1, m + 1), pp))
                       for pp in itertools.permutations(range(1, m + 1))]
            perms_n = [dict(zip(range(1, n + 1), pp))
                       for pp in itertools.permutations(range(1, n + 1))]
            # sigma (x) tau = (sigma (x) 1)(1 (x) tau): both factors have
            # degree 0, so m! + n! tensor builds stand for all m! n!
            lefts = [tensor(p.act(m, sigma), ids[1]) for sigma in perms_m]
            rights = [tensor(ids[0], p.act(n, tau)) for tau in perms_n]
            fails.extend(_equivariance_fails(p, m, n, circs, (
                (sigma, tau, left.then(right))
                for (sigma, left), (tau, right) in itertools.product(
                    zip(perms_m, lefts), zip(perms_n, rights)))))
    triples = [t for t in itertools.product(live, repeat=3)
               if sum(t) - 2 <= N]
    if fails or next(_associativity_fails(p, triples, False), None):
        fails.extend(_associativity_fails(p, triples, True))
    return sorted(set(fails))


# -- dualization ----------------------------------------------------------

def _inverse_perm(perm):
    return {v: k for k, v in perm.items()}


def dualize(x):
    """Operad -> Cooperad or Cooperad -> Operad by linear duality, up to
    the max arity of x; the structure maps are transposes routed through
    the (sign-free) pairing dual(A) (x) dual(B) = dual(A (x) B). The
    actions and the term side of every structure map are built on the
    dual terms themselves, so they are shared and not copied."""
    N = x.N
    field = x.field
    terms = {n: linear_dual(c) for n, c in x._terms.items()}
    adjacent = _adjacent_family(lambda n, s: dual_map(
        x.act(n, _inverse_perm(s)), source=terms[n], target=terms[n]))

    if isinstance(x, Operad):
        def cocirc_builder(q, m, i, n):
            f = dual_map(x.circ(m, i, n), source=terms[m + n - 1])
            # relabel dual-of-tensor as tensor-of-duals
            unpair = ChainMap.from_rule(
                f.target, q.pair_complex(m, n),
                lambda d, lab: [((("dual", lab[1][0]), ("dual", lab[1][1])), 1)])
            return f.then(unpair)

        return Cooperad(field, N, terms, adjacent, cocirc_builder,
                        name=f"dual({x.name})" if x.name else "dual")

    if isinstance(x, Cooperad):
        def circ_builder(q, m, i, n):
            f = dual_map(x.cocirc(m, i, n), target=terms[m + n - 1])
            pair = ChainMap.from_rule(
                q.pair_complex(m, n), f.source,
                lambda d, lab: [(("dual", (lab[0][1], lab[1][1])), 1)])
            return pair.then(f)

        return Operad(field, N, terms, adjacent, circ_builder,
                      name=f"dual({x.name})" if x.name else "dual")
    raise TypeError("dualize needs an operad or cooperad")


# -- pre-cooperads --------------------------------------------------------

class PreCooperad:
    """Tree-indexed complexes with relabeling maps, expansion maps along
    covers, and grafting multiplications. Subclasses override _term,
    _relabel_map, _cover_map and _m_map, and may override cover_rule
    with a rule that builds no map; m_map builds the unit law itself, so
    _m_map sees only trees with at least 2 leaves."""

    def __init__(self, field, N, name=""):
        self.field = field
        self.N = N
        self.name = name
        self._terms = _window(self._term)
        self._expansions = _along_covers(self.term, self.cover_map, True)
        self._composites = _window(self._compose_fragments)

    def term(self, t: Tree) -> ChainComplex:
        return self._terms(t)

    def relabel_map(self, t: Tree, sigma) -> ChainMap:
        return self._relabel_map(t, sigma)

    def cover_map(self, t: Tree, u: Tree, e) -> ChainMap:
        """Q(t) -> Q(u) for the single-edge expansion u with u/e = t."""
        assert u.contract(e) == t
        return self._cover_map(t, u, e)

    def cover_rule(self, t: Tree, u: Tree, e):
        """The rule of cover_map(t, u, e) on one label of term(t): here the
        map applied to that label; ExtendedCooperad builds no map."""
        f = self.cover_map(t, u, e)
        return lambda d, x: f.image(x).items()

    def expansion_map(self, t: Tree, u: Tree) -> ChainMap:
        """Q(t) -> Q(u) for any t <= u, composed along a deterministic
        chain of covers (functoriality makes the choice irrelevant)."""
        if not t.leq(u):
            raise ValueError("expansion_map needs t <= u")
        return self._expansions(t, u)

    def m_map(self, t: Tree, i: int, u: Tree) -> ChainMap:
        """Q(t) (x) Q(u) -> Q(graft(t, i, u)): the unit law x (x) u -> x
        or u (x) y -> y when u or t is the 1-leaf tree, and _m_map
        otherwise."""
        if t.n == 1 or u.n == 1:
            keep = 1 if t.n == 1 else 0
            src = tensor_many(self.field, [self.term(t), self.term(u)])
            return ChainMap.from_rule(src, self.term(graft(t, i, u)),
                                      lambda d, xy: [(xy[keep], 1)])
        return self._m_map(t, i, u)

    def compose_fragments(self, T: Tree, U: Tree) -> ChainMap:
        """(x)_{u in U.vertices()} Q(fragment of T over u) -> Q(T) for
        U <= T, one edge at a time as contract_map merges vertices: the
        first edge e of U with no cluster of U inside it merges into its
        parent through m_map, then relabel_map sorts the merged inputs,
        and the composite along U/e is read from the window. A U with at
        most one vertex sends (x,) to x, and the 1-leaf tree () to the
        unit label."""
        return self._composites(T, U)

    def _compose_fragments(self, T, U):
        frs = fragments(T, U)
        factors = [self.term(frs[w].tree) for w in U.vertices()]
        src = tensor_many(self.field, factors)
        if U.num_vertices <= 1:
            return _unwrap(src, self.term(T))
        e = next(c for c in U.edges() if not any(w < c for w in U.clusters))
        U2 = U.contract(e)
        _, j, _, pi, order, k = _contraction(U, e, U2)
        F_v, F_e = frs[U.parent(e)].tree, frs[e].tree
        pair = self.m_map(F_v, j, F_e)
        if any(x != y for x, y in pi.items()):
            pair = pair.then(self.relabel_map(graft(F_v, j, F_e), pi))
        rest = self.compose_fragments(T, U2)
        return ChainMap.from_rule(src, rest.source, _merge_rule(
            factors, [order.index(w) for w in U.vertices()], k,
            pair)).then(rest)


class ExtendedCooperad(PreCooperad):
    """The pre-cooperad of a cooperad: Q(T) = (x)_vertices q(arity),
    expansions by de-composition, all m maps isomorphisms."""

    def __init__(self, q: Cooperad):
        super().__init__(q.field, q.N,
                         name=f"extend({q.name})" if q.name else "extend")
        self.q = q
        self._splits = _window(self._split, weakref.WeakValueDictionary())

    def _term(self, t):
        return self.q.tree_complex(t)

    def _relabel_map(self, t, sigma):
        return self.q.tree_relabel(t, sigma)

    def _cover_map(self, t, u, e):
        return ChainMap.from_rule(self.term(t), self.term(u),
                                  self.cover_rule(t, u, e))

    def cover_rule(self, t, u, e):
        """Split the merged factor through the split map of the window,
        then place the factors in the vertex order of u with the Koszul
        sign: the inverse route of the operad-side edge contraction."""
        q = self.q
        a, j, b, pi, order, k = _contraction(u, e, t)
        pair = self._splits(a, j, b, tuple(pi.values()))
        vs = u.vertices()
        place = _placer([q.term(u.arity_of(w)) for w in order],
                        [vs.index(w) for w in order])

        def rule(d, x):
            out = []
            for pl, c in pair.image(x[k]).items():
                lab, s = place(x[:k] + pl + x[k + 1:])
                out.append((lab, s * c))
            return out

        return rule

    def _split(self, a, j, b, images):
        """The action of the inverse of the permutation k -> images[k-1]
        on q(a+b-1), followed by cocirc(a, j, b)."""
        pi = dict(enumerate(images, 1))
        return self.q.act(a + b - 1, _inverse_perm(pi)).then(
            self.q.cocirc(a, j, b))

    def _m_map(self, t, i, u):
        src = tensor_many(self.field, [self.term(t), self.term(u)])
        tgt = self.term(graft(t, i, u))
        return ChainMap.from_rule(
            src, tgt,
            lambda d, pr: [self.q._graft_label(t, i, u, pr[0], pr[1])])


def _along_covers(term, cover, covariant):
    """The window (t, u) -> the composite from t up to u (t <= u) along
    the chain of covers that adds the missing clusters of u smallest
    first; each shorter composite is read from the window itself.
    cover(t, u, e) is the map of the cover u/e = t: from term(t) to
    term(u) when covariant, the other way round when not."""
    def build(t, u):
        if t == u:
            return ChainMap.identity(term(t))
        e = min(u.clusters - t.clusters, key=cluster_key)
        u1 = u.contract(e)
        a, b = along(t, u1), cover(u1, u, e)
        return a.then(b) if covariant else b.then(a)

    along = _window(build)
    return along


def extend_cooperad(q: Cooperad) -> PreCooperad:
    return ExtendedCooperad(q)


class FreePreCooperad(PreCooperad):
    """The free pre-cooperad on a tree-indexed family supported either on
    corollas only ("zero" mode) or constant along expansions ("constant"
    mode, value a(n) on every n-leaf tree). Its components are the tree
    complexes of a, so they share a's tensor of each arity sequence."""

    def __init__(self, a: SymSeq, N, mode="zero"):
        if mode not in ("zero", "constant"):
            raise ValueError("mode must be 'zero' or 'constant'")
        super().__init__(a.field, N, name=f"F({a.name})" if a.name else "F")
        self.a = a
        self.mode = mode

    def _component(self, t, u):
        """(x)_{u-vertices} A(T_u) for u <= t, T_u the fragment of t at
        each vertex of u: a.tree_complex(u), as the fragment at a vertex
        of arity k has k leaves; in zero mode A vanishes off corollas,
        so the component is zero unless u is t."""
        if self.mode == "zero" and u != t:
            return zero_complex(self.field)
        return self.a.tree_complex(u)

    def _term(self, t):
        comps = {u: self._component(t, u) for u in enumerate_trees(t.n)
                 if u.leq(t)}
        basis = _graded_basis(((u, l), d) for u, c in comps.items()
                              for l, d in c.label_degree.items())

        def rule(d, lab):
            u, l = lab
            return [((u, l2), v) for l2, v in comps[u].boundary_of(l).items()]

        return ChainComplex.from_rule(self.field, basis, rule)

    def _cover_map(self, t, u2, e):
        # component U <= t maps to component U <= u2 through the family
        # maps A(T_u) -> A((u2)_u); zero unless every fragment is
        # unchanged (zero mode) or always the identity transport
        # (constant mode, where A is constant along expansions)
        def rule(d, lab):
            u, l = lab
            if self.mode == "zero":
                # fragments must already be fully expanded: only u = t = u2/e
                # keeps nonzero values, and then the new edge grows a
                # fragment, killing the term
                return []
            # constant mode: same labels, reindexed by the new fragments
            return [((u, l), 1)]

        return ChainMap.from_rule(self.term(t), self.term(u2), rule)

    def _relabel_map(self, t, sigma):
        return ChainMap.from_rule(self.term(t), self.term(t.relabel(sigma)),
                                  _free_relabel_rule(self.a, sigma))

    def _m_map(self, t, i, u):
        return ChainMap.from_rule(
            tensor_many(self.field, [self.term(t), self.term(u)]),
            self.term(graft(t, i, u)), _free_graft_rule(self.a, i))


def free_precooperad(a: SymSeq, N, mode="zero") -> PreCooperad:
    return FreePreCooperad(a, N, mode=mode)


def is_quasi_cooperad(q: PreCooperad, N):
    """True when every grafting multiplication in range is a
    quasi-isomorphism; witnesses list the failures."""
    witnesses = []
    for m in range(2, N + 1):
        for n in range(2, N + 1):
            if m + n - 1 > N:
                continue
            for t in enumerate_trees(m):
                for u in enumerate_trees(n):
                    for i in range(1, m + 1):
                        f = q.m_map(t, i, u)
                        if not is_quasi_iso(f):
                            witnesses.append((t.encode(), i, u.encode()))
    return not witnesses, witnesses


def symseq_from_degrees(field, N, gens, name="a") -> SymSeq:
    """Symmetric sequence with term(n) freely spanned in the degrees
    gens[n] (a list, possibly with repeats), trivial actions, unit in
    arity 1."""
    terms = {1: k_complex(field, 0, "u")}
    for n, degs in gens.items():
        if degs and 2 <= n <= N:
            basis = {}
            for k, d in enumerate(degs):
                basis.setdefault(d, []).append(f"a{n}_{k}")
            terms[n] = ChainComplex(field, basis, {})
    return SymSeq(field, N, terms, _adjacent_family(
        lambda n, s: ChainMap.identity(terms[n])), name=name)

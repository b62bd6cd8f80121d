"""Rooted trees with labeled leaves and internal vertices of valence >= 2.

A tree over leaf set {1..n} is stored as its family of "clusters": for
each internal vertex, the set of leaves below it. Any laminar family of
subsets of size >= 2 that contains the full set is a valid tree, and:

  * two trees are isomorphic as labeled trees iff the families are equal,
    so this IS the canonical form;
  * contraction of the edge below vertex S = removal of the cluster S,
    so the contraction preorder t <= u is literal inclusion of families;
  * edge tokens (clusters) are stable under contraction, which keeps the
    cube orientation bookkeeping downstream sane.

An internal edge is identified with its lower (child) vertex; the root
edge is the separate token ROOT.

Trees are interned: there is one Tree instance per (n, family), kept for
the life of the process by the lru_cache `_interned`, so tree equality is
identity and a tree hashes by its id. Only the order of a set of trees
depends on that id, and nothing iterates one.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

ROOT = "root"


def cluster_key(c):
    return tuple(sorted(c))


@lru_cache(maxsize=None)
def _interned(n: int, cl: frozenset) -> "Tree":
    """The one Tree over {1..n} with the clusters cl, built and validated
    on the first request. The table lives as long as the process; an
    invalid cl raises ValueError and stores nothing."""
    if n < 1:
        raise ValueError("arity must be >= 1")
    full = frozenset(range(1, n + 1))
    if n == 1:
        if cl:
            raise ValueError("the 1-leaf tree has no internal vertex")
    else:
        if full not in cl:
            raise ValueError("missing root cluster")
    for c in cl:
        if len(c) < 2:
            raise ValueError("cluster of size < 2 (unary vertex)")
        if not c <= full:
            raise ValueError("cluster outside the leaf set")
        for d in cl:
            if not (c <= d or d <= c or not (c & d)):
                raise ValueError("clusters not laminar")
    t = object.__new__(Tree)
    t.n = n
    t.clusters = cl
    t._vertices = t._children = t._edges = t._code = t._repr = None
    return t


class Tree:
    """One tree over {1..n}, given by its clusters. There is one instance
    per tree: Tree(n, clusters) returns the instance that `_interned`
    holds for (n, frozenset of clusters), so two trees are equal iff they
    are the same object, and a tree compares and hashes by identity. A
    tree keeps its vertices, the children of each vertex, its edge list
    and its encoding (which repr reads), each computed on the first
    request."""

    __slots__ = ("n", "clusters", "_vertices", "_children", "_edges",
                 "_code", "_repr")

    def __new__(cls, n: int, clusters):
        return _interned(n, frozenset(frozenset(c) for c in clusters))

    def __reduce__(self):
        return Tree, (self.n, self.clusters)

    # -- basic structure -------------------------------------------------

    @property
    def leaves(self):
        return range(1, self.n + 1)

    @property
    def root_cluster(self):
        return frozenset(range(1, self.n + 1))

    def vertices(self):
        """Internal vertices as clusters, in the fixed global order (a new
        list on each call)."""
        if self._vertices is None:
            self._vertices = tuple(sorted(self.clusters, key=cluster_key))
        return list(self._vertices)

    def edges(self):
        """Internal edges (= non-root clusters), in the fixed global order."""
        if self._edges is None:
            root = self.root_cluster
            self._edges = tuple(sorted((c for c in self.clusters if c != root),
                                       key=cluster_key))
        return self._edges

    @property
    def num_vertices(self):
        return len(self.clusters)

    @property
    def num_edges(self):
        return max(len(self.clusters) - 1, 0)

    def _child_tokens(self, v):
        """The children of vertex v as a tuple, kept on the tree."""
        if self._children is None:
            self._children = {}
        ch = self._children.get(v)
        if ch is None:
            subs = [c for c in self.clusters if c < v]
            maximal = [c for c in subs if not any(c < d for d in subs)]
            covered = set().union(*maximal) if maximal else set()
            toks = maximal + [l for l in v if l not in covered]
            ch = tuple(sorted(toks, key=lambda t: t if isinstance(t, int)
                              else min(t)))
            if v in self.clusters:
                self._children[v] = ch
        return ch

    def children(self, v):
        """Child tokens of vertex v (clusters or leaf ints), sorted by
        minimum leaf (a new list on each call)."""
        return list(self._child_tokens(v))

    def arity_of(self, v):
        return len(self._child_tokens(v))

    def parent(self, e):
        """Parent vertex of the edge/cluster e."""
        above = [c for c in self.clusters if e < c]
        return min(above, key=len)

    def is_corolla(self):
        return self.num_vertices <= 1

    # -- preorder ---------------------------------------------------------

    def leq(self, other: "Tree") -> bool:
        """self <= other: other contracts onto self."""
        if self.n != other.n:
            raise ValueError("mismatched leaf sets")
        return self.clusters <= other.clusters

    def contract(self, e) -> "Tree":
        e = frozenset(e)
        if e == self.root_cluster or e not in self.clusters:
            raise ValueError("not a contractible internal edge")
        return Tree(self.n, self.clusters - {e})

    def expansions(self):
        """All (tree u, new edge e) with u covering self."""
        out = []
        for v in self.vertices():
            ch = self.children(v)
            k = len(ch)
            if k < 3:
                continue
            for mask in range(1, 1 << k):
                idx = [i for i in range(k) if mask >> i & 1]
                if not (2 <= len(idx) <= k - 1):
                    continue
                new = frozenset().union(
                    *({t} if isinstance(t, int) else t for t in (ch[i] for i in idx)))
                out.append((Tree(self.n, self.clusters | {new}), new))
        out.sort(key=lambda p: (p[0].sort_key()))
        return out

    def relabel(self, sigma) -> "Tree":
        """Apply a leaf permutation; sigma is a dict or tuple with
        sigma[i] (1-based for dicts, 0-based offset for tuples) = image."""
        if not isinstance(sigma, dict):
            sigma = {i + 1: s for i, s in enumerate(sigma)}
        if sorted(sigma) != list(self.leaves) or sorted(sigma.values()) != list(self.leaves):
            raise ValueError("not a permutation of the leaf set")
        return Tree(self.n, [frozenset(sigma[l] for l in c) for c in self.clusters])

    # -- encoding ---------------------------------------------------------

    def sort_key(self):
        return (self.num_vertices, tuple(sorted(cluster_key(c) for c in self.clusters)))

    def encode(self) -> str:
        """Nested-parentheses encoding, children in canonical order.
        Computed on the first call and kept on the tree."""
        if self._code is None:
            def enc(tok):
                if isinstance(tok, int):
                    return str(tok)
                return "(" + " ".join(enc(t) for t in self.children(tok)) + ")"

            self._code = "1" if self.n == 1 else enc(self.root_cluster)
        return self._code

    def __repr__(self):
        if self._repr is None:
            self._repr = f"Tree[{self.encode()}]"
        return self._repr


def corolla(n: int) -> Tree:
    if n == 1:
        return Tree(1, [])
    return Tree(n, [frozenset(range(1, n + 1))])


def canonical_form(data) -> Tree:
    """Build a tree from nested lists/tuples of leaf labels (or from an
    existing Tree). Raises on unary vertices or bad label sets."""
    if isinstance(data, Tree):
        return data
    clusters = []

    def walk(node):
        if isinstance(node, int):
            return {node}
        if len(node) < 2:
            raise ValueError("unary vertex")
        s = set()
        for ch in node:
            part = walk(ch)
            if s & part:
                raise ValueError("duplicate leaf label")
            s |= part
        clusters.append(frozenset(s))
        return s

    if isinstance(data, int):
        if data != 1:
            raise ValueError("single leaf must be labeled 1")
        return Tree(1, [])
    leafset = walk(data)
    n = len(leafset)
    if leafset != set(range(1, n + 1)):
        raise ValueError("leaf labels must be exactly 1..n")
    return Tree(n, clusters)


def _partitions(items):
    """All set partitions of a list, each partition a list of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


@lru_cache(maxsize=None)
def _trees_over(leafset):
    """All trees (as cluster frozensets) on a given frozenset of >= 2 leaves."""
    out = []
    items = sorted(leafset)
    for part in _partitions(items):
        if len(part) < 2:
            continue
        # blocks are the children of the root; a block of size >= 2 carries
        # an arbitrary subtree (whose root cluster is the block itself)
        choices = []
        for block in part:
            if len(block) >= 2:
                choices.append(_trees_over(frozenset(block)))
            else:
                choices.append([frozenset()])
        for combo in itertools.product(*choices):
            clusters = frozenset().union(*combo) | {frozenset(leafset)}
            out.append(clusters)
    return out


@lru_cache(maxsize=None)
def enumerate_trees(n: int):
    """All isomorphism classes of trees with leaves {1..n}, canonical,
    deterministically sorted."""
    if n < 1:
        raise ValueError("arity must be >= 1 (reduced setting)")
    if n == 1:
        return (Tree(1, []),)
    cl_sets = _trees_over(frozenset(range(1, n + 1)))
    # a cluster frozenset here is a set of frozensets minus bookkeeping empties
    trees = []
    for cl in cl_sets:
        clusters = {c for c in cl if c}
        trees.append(Tree(n, clusters))
    trees.sort(key=Tree.sort_key)
    return tuple(trees)


def _graft_place(t: Tree, i: int, u: Tree):
    """Where graft(t, i, u) puts the clusters (vertices and edges) of t
    and of u: two dicts from those clusters to clusters of the result."""
    m = u.n
    block = range(i, i + m)

    def t_image(c):
        s = set()
        for l in c:
            if l == i:
                s.update(block)
            else:
                s.add(l if l < i else l + m - 1)
        return frozenset(s)

    return ({c: t_image(c) for c in t.clusters},
            {c: frozenset(l + i - 1 for l in c) for c in u.clusters})


@lru_cache(maxsize=None)
def _graft_slots(t: Tree, i: int, u: Tree):
    """(v, slots) for v = graft(t, i, u): slots lists the position in
    v.vertices() of each vertex of t, then of each vertex of u."""
    v = graft(t, i, u)
    t_img, u_img = _graft_place(t, i, u)
    pos = {w: k for k, w in enumerate(v.vertices())}
    return v, tuple([pos[t_img[w]] for w in t.vertices()] +
                    [pos[u_img[w]] for w in u.vertices()])


@lru_cache(maxsize=None)
def _vertex_arities(t: Tree):
    """The arity of each vertex of t, in vertex order."""
    return tuple(t.arity_of(v) for v in t.vertices())


def _token_image(tok, sigma):
    """The image of a leaf, a cluster or ROOT under the leaf permutation
    sigma."""
    if isinstance(tok, int):
        return sigma[tok]
    if tok == ROOT:
        return ROOT
    return frozenset(sigma[l] for l in tok)


def _vertex_relabel(t: Tree, t2: Tree, sigma):
    """Per vertex of t, in order: how sigma permutes its inputs (a dict
    on 1..arity) and the position of its image among the vertices of
    t2 = t.relabel(sigma)."""
    at = {w: k for k, w in enumerate(t2.vertices())}
    out = []
    for v in t.vertices():
        v2 = frozenset(sigma[l] for l in v)
        ch2 = {tok: k for k, tok in enumerate(t2.children(v2), start=1)}
        out.append(({k: ch2[_token_image(tok, sigma)]
                     for k, tok in enumerate(t.children(v), start=1)}, at[v2]))
    return out


def graft(t: Tree, i: int, u: Tree) -> Tree:
    """Graft u onto leaf i of t, leaves of u renumbered to the consecutive
    block {i, ..., i+|u|-1} and higher leaves of t shifted."""
    if i not in t.leaves:
        raise ValueError(f"{i} is not a leaf of {t!r}")
    if u.n == 1:
        return t
    t_img, u_img = _graft_place(t, i, u)
    return Tree(t.n + u.n - 1, list(t_img.values()) + list(u_img.values()))


def grafted_edge(t: Tree, i: int, u: Tree):
    """The cluster of graft(t, i, u) that is the grafted edge."""
    return frozenset(range(i, i + u.n))


def split_at_block(v: Tree, i: int, m: int):
    """Inverse of grafting: if the block {i..i+m-1} is a cluster of v (m >= 2),
    return (t, u) with graft(t, i, u) = v; else None."""
    block = frozenset(range(i, i + m))
    if m < 2 or block not in v.clusters:
        return None
    u_clusters = [frozenset(l - i + 1 for l in c) for c in v.clusters if c <= block]
    u = Tree(m, u_clusters)
    t_clusters = []
    for c in v.clusters:
        if c <= block:
            continue
        s = set()
        for l in c:
            if l in block:
                s.add(i)
            elif l > i + m - 1:
                s.add(l - m + 1)
            else:
                s.add(l)
        t_clusters.append(frozenset(s))
    t = Tree(v.n - m + 1, t_clusters)
    return t, u


def _split_graft(v: Tree, i: int, m: int, n: int):
    """The pair (t, u) of arities m and n with graft(t, i, u) = v, the
    unit tree included on either side; None when v does not split there."""
    if n == 1:
        return v, Tree(1, [])
    if m == 1:
        return Tree(1, []), v
    return split_at_block(v, i, n)


class Fragment:
    """The piece of a finer tree t sitting over one vertex of a coarser
    tree u <= t: a tree over the incoming edges of that vertex."""

    __slots__ = ("vertex", "tree", "to_global")

    def __init__(self, vertex, tree, to_global):
        self.vertex = vertex          # the u-cluster this fragment refines
        self.tree = tree              # tree over {1..k}, k = arity of vertex in u
        self.to_global = to_global    # fragment cluster -> t cluster

    def __repr__(self):
        return f"Fragment({set(self.vertex)} ~ {self.tree!r})"


def fragments(t: Tree, u: Tree):
    """For u <= t, map each u-vertex to its fragment of t; None if u <= t
    fails. Grafting all fragments back together recovers t."""
    if t.n != u.n:
        raise ValueError("mismatched leaf sets")
    if not u.leq(t):
        return None
    out = {}
    for v in u.vertices():
        ch = u.children(v)
        tok_set = {}
        for j, tok in enumerate(ch, start=1):
            tok_set[j] = frozenset({tok}) if isinstance(tok, int) else tok
        # t-clusters lying between v and its u-children (v itself included,
        # clusters inside a child token belong to a lower fragment)
        frag_clusters = []
        to_global = {}
        for c in t.clusters:
            if not c <= v:
                continue
            if c != v and any(c <= tok_set[j] for j in tok_set):
                continue
            local = frozenset(j for j in tok_set if tok_set[j] <= c)
            frag_clusters.append(local)
            to_global[local] = c
        frag = Tree(len(ch), frag_clusters)
        out[v] = Fragment(v, frag, to_global)
    return out


def adjacent_transposition(n: int, i: int):
    """The permutation (i, i+1) of {1..n} as a dict."""
    s = {j: j for j in range(1, n + 1)}
    s[i], s[i + 1] = i + 1, i
    return s


def perm_to_adjacents(perm: dict):
    """Decompose a permutation of {1..n} into adjacent transpositions:
    returns indices [j1..jm] with perm = s_{jm} o ... o s_{j1} as function
    composition (s_{j1} acting first).

    Bubble-sorting the one-line notation swaps positions j, j+1, which is
    right-multiplication by s_j; once sorted, perm * s_{j1} * ... * s_{jm}
    = id, so perm = s_{jm} o ... o s_{j1}."""
    n = len(perm)
    cur = [perm[i] for i in range(1, n + 1)]
    swaps = []
    changed = True
    while changed:
        changed = False
        for j in range(n - 1):
            if cur[j] > cur[j + 1]:
                cur[j], cur[j + 1] = cur[j + 1], cur[j]
                swaps.append(j + 1)
                changed = True
    return swaps

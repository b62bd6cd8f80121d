"""Cellular chain models of the cubes attached to trees.

A cube has one coordinate per edge token; a cell assigns each token a
value 0, 1 or * and its degree is the number of stars. Orientations are
wedges of the starred coordinates taken in the fixed global token order
(root first, then clusters sorted by cluster_key), so every sign below
is a Koszul reshuffle against that order.

Four families of complexes:
  delta_cube(t)      the full cube on the internal edges of t
  wbar(t)            the quotient cube with root pinned at * and any
                     coordinate at 1 (or root at 0) collapsed to zero
  rel_delta(u, t)    the cube on the edges of u not in t (t <= u)
  wbar_family(t, u)  tensor of wbar over the fragments of t above the
                     vertices of u (zero complex unless u <= t)

plus the structure maps between them: face inclusions, the grafting
maps nu and mu (extended to unit trees, and the relative split), the
leaf relabelings, the transports of family cells along covers and
relabelings, and the assembly map theta.

Each of these maps but theta moves cell coordinates: _move_cell sends
coordinate k to a slot of the target, sets every coordinate that
nothing moves to 0, and takes the Koszul sign of the starred ones
(_star_sign). A map that is a pure move is one _cube_map on its slot
table; mu also pins the grafted edge to 1 (_mu_cell). The slot tables
of grafting (_nu_slots, _mu_slots) and the family tokens (_fam_ids)
are lru-cached, so a caller that needs one cell (W's composition, the
nu sign of bar and cobar, bbar's covers and relabelings) moves that
cell and builds no map. The whole maps serve the callers that consume
a whole map (the engines' weight diagrams, co-W's Hom maps) and the
tests, as the references the single-cell moves are checked against.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

from .chain import (
    ChainComplex, ChainMap, _sgn, koszul_sign, tensor_many, zero_complex,
)
from .trees import (
    ROOT, Tree, _graft_place, _split_graft, _token_image, cluster_key,
    fragments, graft, grafted_edge,
)

STAR = "*"


def _cube_complex(field, tokens, allowed):
    """Cellular chains of a product of intervals, one per token, with
    cells failing `allowed` collapsed to zero (the killed cells form a
    subcomplex in every use below)."""
    cells = [c for c in itertools.product((0, 1, STAR), repeat=len(tokens))
             if allowed(c)]
    basis = {}
    for c in cells:
        basis.setdefault(sum(1 for v in c if v == STAR), []).append(c)

    def rule(d, cell):
        out = []
        stars_before = 0
        for pos, val in enumerate(cell):
            if val != STAR:
                continue
            sgn = _sgn(stars_before)
            for new, s2 in ((1, 1), (0, -1)):
                face = cell[:pos] + (new,) + cell[pos + 1:]
                if allowed(face):
                    out.append((face, sgn * s2))
            stars_before += 1
        return out

    return ChainComplex.from_rule(field, basis, rule)


@lru_cache(maxsize=None)
def delta_cube(field, t: Tree) -> ChainComplex:
    """Chains of the cube on the internal edges of t; contractible."""
    return _cube_complex(field, t.edges(), lambda c: True)


def _wbar_tokens(t: Tree):
    return (ROOT,) + t.edges()


@lru_cache(maxsize=None)
def wbar(field, t: Tree) -> ChainComplex:
    """Chains of the quotient cube: root coordinate always *, internal
    edges in {0, *}; any coordinate at 1 or the root at 0 is zero.

    For the 1-leaf tree this degenerates to the field in degree 0."""
    if t.n == 1:
        return ChainComplex(field, {0: [()]}, {})
    return _cube_complex(
        field, _wbar_tokens(t),
        lambda c: c[0] == STAR and all(v != 1 for v in c))


@lru_cache(maxsize=None)
def rel_delta(field, u: Tree, t: Tree) -> ChainComplex:
    """The cube on the edges of u missing from t; needs t <= u."""
    if not t.leq(u):
        raise ValueError("rel_delta needs t <= u")
    return _cube_complex(field, _rel_tokens(u, t), lambda c: True)


def _rel_tokens(u: Tree, t: Tree):
    return tuple(sorted(u.clusters - t.clusters, key=cluster_key))


@lru_cache(maxsize=None)
def wbar_family(field, t: Tree, u: Tree) -> ChainComplex:
    """Tensor of wbar over the fragments of t sitting above the vertices
    of u (in global vertex order); the zero complex when u is not a
    contraction of t."""
    frs = fragments(t, u)
    if frs is None:
        return zero_complex(field)
    return tensor_many(field, [wbar(field, frs[v].tree) for v in u.vertices()])


def _slots(src_tokens, tgt_tokens, image=lambda tok: tok):
    """The position among tgt_tokens of the image of each source token."""
    pos = {tok: k for k, tok in enumerate(tgt_tokens)}
    return [pos[image(tok)] for tok in src_tokens]


def _relabel_slots(src_tokens, tgt_tokens, sigma):
    return _slots(src_tokens, tgt_tokens, lambda tok: _token_image(tok, sigma))


def _star_sign(slots):
    """Sign of moving the starred (degree-1) coordinates of a cell into
    target order: slots lists, in source order, the target position of
    each starred coordinate (any order-preserving key will do)."""
    return koszul_sign([1] * len(slots), slots)


def _move_cell(cell, slots, size):
    """Move coordinate k of a cell to position slots[k] of a cell of the
    given size, every coordinate that nothing moves set to 0: the new
    coordinates (a list) and the sign of the star reshuffle."""
    out = [0] * size
    for s, val in zip(slots, cell):
        out[s] = val
    return out, _star_sign([s for s, val in zip(slots, cell) if val == STAR])


def _chunks(flat, widths):
    """Cut a flat sequence into consecutive tuples of the given widths,
    such as a cell into the cells of its tensor factors."""
    out, k = [], 0
    for w in widths:
        out.append(tuple(flat[k:k + w]))
        k += w
    return tuple(out)


def _cube_map(src, tgt, slots, size, widths=None) -> ChainMap:
    """src -> tgt moving every cell by _move_cell, a cell of a tensor of
    cubes read as its flat coordinate list, and cut into the cells of
    the tensor factors of the given widths if any. An image that is no
    cell of tgt (a root at 0 in a wbar factor) is a collapsed cell, so
    the cell goes to zero."""
    def rule(d, cell):
        if cell and isinstance(cell[0], tuple):
            cell = [v for row in cell for v in row]
        out, sgn = _move_cell(cell, slots, size)
        out = tuple(out) if widths is None else _chunks(out, widths)
        return [(out, sgn)] if out in tgt.index(d) else []

    return ChainMap.from_rule(src, tgt, rule)


def face_inclusion(field, kind: str, src, tgt) -> ChainMap:
    """The signed face inclusions between cube complexes: cells extended
    by 0 on the new coordinates, with sign +1 in the global token order.

    kind "delta": src = t, tgt = t' with t <= t', new edges pinned to 0.
    kind "wbar":  the same on the quotient cubes.
    kind "i":     src = (u, t), tgt = (u', t) with u <= u'.
    kind "j":     src = (u, t), tgt = (u, t') with t' <= t.
    """
    if kind in ("delta", "wbar"):
        if not src.leq(tgt):
            raise ValueError("face_inclusion needs t <= t'")
        cube = delta_cube if kind == "delta" else wbar
        toks = Tree.edges if kind == "delta" else _wbar_tokens
        a, b = cube(field, src), cube(field, tgt)
        a_toks, b_toks = toks(src), toks(tgt)
    elif kind in ("i", "j"):
        (u, t), (u2, t2) = src, tgt
        if kind == "i" and (t != t2 or not u.leq(u2)):
            raise ValueError("kind 'i' needs src = (u, t), tgt = (u', t), u <= u'")
        if kind == "j" and (u != u2 or not t2.leq(t)):
            raise ValueError("kind 'j' needs src = (u, t), tgt = (u, t'), t' <= t")
        a, b = rel_delta(field, u, t), rel_delta(field, u2, t2)
        a_toks, b_toks = _rel_tokens(u, t), _rel_tokens(u2, t2)
    else:
        raise ValueError(f"unknown face inclusion kind {kind!r}")
    return _cube_map(a, b, _slots(a_toks, b_toks), len(b_toks))


# -- grafting, relabelings and the relative split ------------------------

@lru_cache(maxsize=None)
def _nu_slots(t: Tree, i: int, u: Tree):
    """The move of nu for v = graft(t, i, u): the slot of each wbar token
    of v among the wbar tokens of t then of u, the grafted edge becoming
    the root of u."""
    t_img, u_img = _graft_place(t, i, u)
    reads = [ROOT] + [t_img[c] for c in t.edges()] + \
        [grafted_edge(t, i, u)] + [u_img[c] for c in u.edges()]
    return tuple(_slots(_wbar_tokens(graft(t, i, u)), reads))


@lru_cache(maxsize=None)
def _mu_slots(t: Tree, i: int, u: Tree):
    """The move of mu for v = graft(t, i, u): the slot among the edges of
    v of each edge of t then of u, and the slot of the grafted edge."""
    t_img, u_img = _graft_place(t, i, u)
    v_edges = graft(t, i, u).edges()
    moved = [t_img[c] for c in t.edges()] + [u_img[c] for c in u.edges()]
    return tuple(_slots(moved, v_edges)), v_edges.index(grafted_edge(t, i, u))


def _mu_cell(t: Tree, i: int, u: Tree, tcell, ucell):
    """mu on one pair of cells: the moved cell of delta(graft(t, i, u)),
    grafted edge at 1, and its sign."""
    slots, g = _mu_slots(t, i, u)
    out, sgn = _move_cell(tcell + ucell, slots, len(slots) + 1)
    out[g] = 1
    return tuple(out), sgn


def graft_decompose(field, t: Tree, i: int, u: Tree):
    """The two grafting maps for v = graft(t, i, u):

    nu: wbar(v) -> wbar(t) (x) wbar(u), grafted-edge coordinate becoming
        the root of the u factor (zero when that coordinate is 0);
    mu: delta(t) (x) delta(u) -> delta(v), new edge pinned to 1.

    Signs are Koszul reshuffles of the starred coordinates."""
    if t.n < 2 or u.n < 2:
        raise ValueError("graft_decompose needs both trees of arity >= 2")
    mu = ChainMap.from_rule(
        tensor_many(field, [delta_cube(field, t), delta_cube(field, u)]),
        delta_cube(field, graft(t, i, u)),
        lambda d, pair: [_mu_cell(t, i, u, *pair)])
    return nu_general(field, t, i, u), mu


def nu_general(field, t: Tree, i: int, u: Tree) -> ChainMap:
    """wbar(graft(t,i,u)) -> wbar(t) (x) wbar(u), extended to arity-1
    factors by the unit isomorphisms."""
    wv = wbar(field, graft(t, i, u))
    tgt = tensor_many(field, [wbar(field, t), wbar(field, u)])
    if u.n == 1:
        return ChainMap.from_rule(wv, tgt, lambda d, c: [((c, ()), 1)])
    if t.n == 1:
        return ChainMap.from_rule(wv, tgt, lambda d, c: [(((), c), 1)])
    slots = _nu_slots(t, i, u)
    return _cube_map(wv, tgt, slots, len(slots),
                     (t.num_edges + 1, u.num_edges + 1))


def wbar_relabel(field, t: Tree, sigma) -> ChainMap:
    if t.n == 1:
        return ChainMap.identity(wbar(field, t))
    t2 = t.relabel(sigma)
    toks = _wbar_tokens(t)
    return _cube_map(wbar(field, t), wbar(field, t2),
                     _relabel_slots(toks, _wbar_tokens(t2), sigma), len(toks))


def rel_delta_relabel(field, u: Tree, t: Tree, sigma) -> ChainMap:
    u2, t2 = u.relabel(sigma), t.relabel(sigma)
    toks = _rel_tokens(u, t)
    return _cube_map(rel_delta(field, u, t), rel_delta(field, u2, t2),
                     _relabel_slots(toks, _rel_tokens(u2, t2), sigma),
                     len(toks))


def rel_split(field, V: Tree, v: Tree, i: int, t: Tree, u: Tree) -> ChainMap:
    """Relative cube iso rel(V;v) -> rel(T2;t) (x) rel(U2;u) where V
    splits at the block of u's leaves into (T2, U2); clusters inside the
    block shift down, the others collapse the block to the leaf i."""
    T2, U2 = _split_graft(V, i, t.n, u.n)
    t_toks, u_toks = _rel_tokens(T2, t), _rel_tokens(U2, u)
    t_img, u_img = _graft_place(T2, i, U2)
    slots = _slots(_rel_tokens(V, v), [t_img[c] for c in t_toks] +
                   [u_img[c] for c in u_toks])
    return _cube_map(
        rel_delta(field, V, v),
        tensor_many(field, [rel_delta(field, T2, t), rel_delta(field, U2, u)]),
        slots, len(slots), (len(t_toks), len(u_toks)))


# -- family cells: moves along covers, relabelings and graftings ----------

@lru_cache(maxsize=None)
def _fam_ids(T: Tree, U: Tree):
    """Per U-vertex: identities of the wbar tokens of the fragment of T
    (root marker ("r", w), then the global clusters of the internal
    edges)."""
    frs = fragments(T, U)
    return tuple((("r", w),) + tuple(frs[w].to_global[lc]
                                     for lc in frs[w].tree.edges())
                 for w in U.vertices())


def _id_image(gid, image):
    """A family token moved by a map of clusters: the root marker
    ("r", w) goes to ("r", image(w))."""
    return ("r", image(gid[1])) if isinstance(gid, tuple) else image(gid)


def _family_move(s_ids, t_ids, conv):
    """The (slots, size, widths) of the move of family cells with tokens
    s_ids to the tokens t_ids along the token map conv."""
    flat = [g for toks in t_ids for g in toks]
    return (_slots([g for toks in s_ids for g in toks], flat, conv),
            len(flat), [len(toks) for toks in t_ids])


def _move_family_cells(s_ids, cells, t_ids, conv):
    """Move a block of wbar cells along the token map conv, which sends
    roots to roots: the target cells and the sign."""
    slots, size, widths = _family_move(s_ids, t_ids, conv)
    coords, sgn = _move_cell([v for cell in cells for v in cell], slots,
                             size)
    return _chunks(coords, widths), sgn


def _family_map(field, T, U, T2, U2, conv) -> ChainMap:
    """wbar_family(T, U) -> wbar_family(T2, U2) moving each coordinate
    along the token map conv."""
    src = wbar_family(field, T, U)
    tgt = wbar_family(field, T2, U2)
    if src.total_dim() == 0 or tgt.total_dim() == 0:
        return ChainMap.zero(src, tgt)
    return _cube_map(src, tgt, *_family_move(_fam_ids(T, U), _fam_ids(T2, U2),
                                             conv))


def family_inclusion(field, t: Tree, t2: Tree, u: Tree) -> ChainMap:
    """wbar_family(t, u) -> wbar_family(t2, u) for u <= t <= t2: on each
    fragment the face inclusion pinning the new local edges to 0. Both
    fragments order their shared edges the same way, so the sign is +1."""
    if not (t.leq(t2) and u.leq(t)):
        raise ValueError("family_inclusion needs u <= t <= t2")
    return _family_map(field, t, u, t2, u, lambda gid: gid)


def family_cover(field, T: Tree, U: Tree, U2: Tree, enew) -> ChainMap:
    """w̄(T;U) -> w̄(T;U2) for the cover U < U2 (one new cluster enew):
    split the fragment at the new cluster, whose coordinate becomes the
    root of the new factor."""
    return _family_map(field, T, U, T, U2,
                       lambda gid: ("r", enew) if gid == enew else gid)


def theta_cells(field, t: Tree, u: Tree) -> ChainMap:
    """The assembly map delta(t) (x) wbar(u) -> wbar_family(t, u), with
    the rule _theta_cell_rule; the zero map (into the zero complex) when
    u is not a contraction of t."""
    source = tensor_many(field, [delta_cube(field, t), wbar(field, u)])
    rule = _theta_cell_rule(t, u, fragments(t, u))
    if rule is None:
        return ChainMap.zero(source, zero_complex(field))
    return ChainMap.from_rule(source, wbar_family(field, t, u), rule)


def _theta_cell_rule(t: Tree, u: Tree, frs):
    """The rule of theta_cells on a pair (delta cell, wbar cell), or None
    when u is not a contraction of t; frs is fragments(t, u).

    Built one target coordinate at a time. For the fragment above a
    vertex of u: internal fragment edges read the delta coordinate of
    the matching t-edge directly (value 1 kills the term); the fragment
    root over an internal u-edge applies the h table to the (delta,
    wbar) pair at that cluster, so only (*, 0) and (1, *) survive, the
    latter with a minus sign; the fragment root at the u-root applies r
    to the root coordinate, contributing a minus sign. The total sign
    also reshuffles the consumed degree-1 coordinates into target order.
    """
    if frs is None:
        return None
    u_vertices = u.vertices()
    u_root = u.root_cluster
    t_edges = t.edges()
    u_toks = _wbar_tokens(u)
    frag_edge_src = {v: [frs[v].to_global[e] for e in frs[v].tree.edges()]
                     for v in u_vertices}

    def rule(d, pair):
        dcell, wcell = pair
        dval = dict(zip(t_edges, dcell))
        wval = dict(zip(u_toks, wcell))
        sgn = 1
        consumed = []
        out_cells = []
        for v in u_vertices:
            coords = []
            if v == u_root:
                coords.append(STAR)
                sgn = -sgn
                consumed.append(("w", ROOT))
            else:
                a, b = dval[v], wval[v]
                if (a, b) == (STAR, 0):
                    coords.append(STAR)
                    consumed.append(("d", v))
                elif (a, b) == (1, STAR):
                    coords.append(STAR)
                    sgn = -sgn
                    consumed.append(("w", v))
                else:
                    return []
            for c in frag_edge_src[v]:
                a = dval[c]
                if a == 1:
                    return []
                coords.append(a)
                if a == STAR:
                    consumed.append(("d", c))
            out_cells.append(tuple(coords))
        src_syms = [("d", e) for e in t_edges if dval[e] == STAR] + \
                   [("w", ROOT)] + \
                   [("w", e) for e in u.edges() if wval[e] == STAR]
        pos = {s: k for k, s in enumerate(consumed)}
        return [(tuple(out_cells),
                 sgn * _star_sign([pos[s] for s in src_syms]))]

    return rule

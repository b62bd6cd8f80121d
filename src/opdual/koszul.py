"""Linear-dual Koszul duality: K = dual of the bar construction, the
dual of an operad as a pre-cooperad (the extension of its dual
cooperad, labelled (("dual", x_1), ..., ("dual", x_k)) on a tree with k
vertices), the currying iso C(dual p) -> K(p), the double-dual
comparison C(B(p)) -> K(K(p)), a signed relabel by the same currying
rule, and `verify_kk`, which runs the comparison's checks and returns
the tables and checks that the command line prints."""
from __future__ import annotations

from .chain import ChainMap, _sgn
from .operads import Operad, PreCooperad, dualize, extend_cooperad
from .barcobar import CobarOperad, bar, cobar, theta


def koszul_dual(p: Operad, N) -> Operad:
    """The dual of the bar cooperad, with the dual operad structure."""
    return dualize(bar(p, N))


# -- KP = C(dual P) -------------------------------------------------------

def dual_precooperad(p: Operad) -> PreCooperad:
    """The dual of an operad, as a pre-cooperad: the extension of its
    dual cooperad, labels (("dual", x_1), ..., ("dual", x_k)) on a tree
    with k vertices."""
    return extend_cooperad(dualize(p))


def _curry(p: Operad, T, x):
    """The currying relabel of a label x of p.tree_complex(T), as a rule's
    image: [(("dual", (T, x)), (-1)^(V(V-1)/2 + V |x|))], V the number of
    vertices of T."""
    V = T.num_vertices
    s = V * (V - 1) // 2 + V * sum(p._degrees(T, x))
    return [(("dual", (T, x)), _sgn(s))]


def kp_iso(p: Operad, N):
    """The currying iso from the cobar of the dual pre-cooperad to the
    dual of the bar: (T, (("dual", x_1), ..., ("dual", x_k))) goes to
    ("dual", (T, (x_1, ..., x_k))) with the sign of `_curry`. Returns
    (kp, cdp, per-arity isos)."""
    kp = koszul_dual(p, N)
    cdp = cobar(dual_precooperad(p), N)

    def rule(d, lab):
        T, duals = lab
        return _curry(p, T, tuple(y for _, y in duals))

    return kp, cdp, {n: ChainMap.from_rule(cdp.term(n), kp.term(n), rule)
                     for n in range(1, N + 1)}


# -- the double-dual comparison -------------------------------------------

def cb_to_kk(p: Operad, N, cb: CobarOperad | None = None):
    """The comparison C(B(p)) -> K(K(p)): the cobar of the evaluation
    iso B(p) -> B(p)^vv composed with the currying iso, built as the one
    signed relabel (T, (x_1, ..., x_k)) -> ("dual", (T, (("dual", x_1),
    ..., ("dual", x_k)))) with the sign of `_curry`. Returns (kp,
    kkp, per-arity maps), kp = K(p) the dual of the bar cooperad that cb
    holds."""
    if cb is None:
        cb = cobar(extend_cooperad(bar(p, N)), N)
    kp = dualize(cb.q.q)
    kkp = koszul_dual(kp, N)

    def rule(d, lab):
        T, x = lab
        return _curry(kp, T, tuple(("dual", y) for y in x))

    return kp, kkp, {n: ChainMap.from_rule(cb.term(n), kkp.term(n), rule)
                     for n in range(1, N + 1)}


# -- the verification pipeline --------------------------------------------

def _first_non_bijective(maps: dict, N) -> dict | None:
    """The first arity, and in it the first degree, at which the per-arity
    degree-0 map maps[n] has rank below its source or target dimension;
    None when every map is bijective (is_iso holds in every arity)."""
    for n in range(1, N + 1):
        f = maps[n]
        for k in sorted(set(f.source.degrees()) | set(f.target.degrees())):
            dim = max(f.source.dim(k), f.target.dim(k))
            rank = f.matrix(k).rank()
            if rank < dim:
                return {"arity": n, "degree": k, "rank": rank, "dim": dim}
    return None


def _str_keys(tab: dict) -> dict:
    return {str(k): v for k, v in tab.items()}


def verify_kk(p: Operad, N) -> dict:
    """Check that the double dual of the bar construction recovers the
    operad: the comparison maps are bijective and homology agrees.
    Returns the report the command line prints: "tables", the dims of
    K(K(p)) as {str(n): {str(k): dim}}, and "checks", one {"name",
    "pass", "witness"} per check in name order: cb_to_kk_iso,
    composite_iso, homology_match. A failing iso check's witness is the
    first rank deficit, {"arity", "degree", "rank", "dim"}; a failing
    homology_match's is the first arity whose homology differs, {"arity",
    "kk", "p"} with the two homology tables; a passing check's is the
    dims table of p, keyed as "tables"."""
    cb = cobar(extend_cooperad(bar(p, N)), N)
    _, _, th = theta(p, N, cb=cb)
    _, kkp, dd = cb_to_kk(p, N, cb=cb)
    comp = {n: th[n].then(dd[n]) for n in range(1, N + 1)}
    where = {name: _first_non_bijective(maps, N) for name, maps in
             (("cb_to_kk_iso", dd), ("composite_iso", comp))}
    where["homology_match"] = None
    dims_p, tables = {}, {}
    for n in range(1, N + 1):
        dims_p[str(n)] = _str_keys(p.term(n).dims())
        tables[str(n)] = _str_keys(kkp.term(n).dims())
        hk, hp = kkp.term(n).homology_table(), p.term(n).homology_table()
        if hk != hp and where["homology_match"] is None:
            where["homology_match"] = {"arity": n, "kk": _str_keys(hk),
                                       "p": _str_keys(hp)}
    return {"tables": tables,
            "checks": [{"name": name, "pass": w is None,
                        "witness": dims_p if w is None else w}
                       for name, w in sorted(where.items())]}

"""Linear-dual Koszul duality: K = dual of the bar construction, the
dual of an operad as a pre-cooperad (the extension of its dual
cooperad, labelled (("dual", x_1), ..., ("dual", x_k)) on a tree with k
vertices), the double-dual comparison, and `verify_kk`, which runs
the comparison's checks and returns the tables and checks that the
command line prints."""
from __future__ import annotations

from .chain import ChainMap, _sgn
from .trees import enumerate_trees
from .operads import (
    ExtendedCooperad, Operad, PreCooperad, dualize, extend_cooperad,
)
from .barcobar import CobarOperad, bar, cobar, cobar_map, theta


def koszul_dual(p: Operad, N) -> Operad:
    """The dual of the bar cooperad, with the dual operad structure."""
    return dualize(bar(p, N))


# -- KP = C(dual P) -------------------------------------------------------

def dual_precooperad(p: Operad) -> PreCooperad:
    """The dual of an operad, as a pre-cooperad: the extension of its
    dual cooperad, labels (("dual", x_1), ..., ("dual", x_k)) on a tree
    with k vertices."""
    return extend_cooperad(dualize(p))


def kp_iso(p: Operad, N, cdp: CobarOperad | None = None):
    """The currying iso from the cobar of the dual pre-cooperad to the
    dual of the bar: the signed relabel (T, (("dual", x_1), ...,
    ("dual", x_k))) -> ("dual", (T, (x_1, ..., x_k))). Returns (kp, cdp,
    per-arity isos)."""
    kp = koszul_dual(p, N)
    if cdp is None:
        cdp = cobar(dual_precooperad(p), N)

    def rule(d, lab):
        T, duals = lab
        x = tuple(y for _, y in duals)
        V = T.num_vertices
        s = V * (V - 1) // 2 + V * sum(p._degrees(T, x))
        return [(("dual", (T, x)), _sgn(s))]

    return kp, cdp, {n: ChainMap.from_rule(cdp.term(n), kp.term(n), rule)
                     for n in range(1, N + 1)}


# -- the double-dual comparison -------------------------------------------

def double_dual_map(eq: ExtendedCooperad):
    """The evaluation map from the extension eq of a cooperad q into the
    dual pre-cooperad of its dual operad kq, per tree up to the max arity
    of q. Returns (kq, dual pre-cooperad, family)."""
    kq = dualize(eq.q)
    ddq = dual_precooperad(kq)

    def rule(d, lab):
        return [(tuple(("dual", ("dual", x)) for x in lab), 1)]

    fam = {t: ChainMap.from_rule(eq.term(t), ddq.term(t), rule)
           for n in range(1, eq.N + 1) for t in enumerate_trees(n)}
    return kq, ddq, fam


def cb_to_kk(p: Operad, N, cb: CobarOperad | None = None):
    """Cobar applied to the double-dual comparison of the bar cooperad,
    composed with the currying iso. Returns (kp, kkp, per-arity maps),
    kp = K(p) being the dual of the bar cooperad that the double dual is
    built on."""
    if cb is None:
        cb = cobar(extend_cooperad(bar(p, N)), N)
    kp, ddq, fam = double_dual_map(cb.q)
    ckk = cobar(ddq, N)
    cm = cobar_map(cb, ckk, fam, N)
    kkp, _, iso = kp_iso(kp, N, cdp=ckk)
    out = {n: cm[n].then(iso[n]) for n in range(1, N + 1)}
    return kp, kkp, out


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

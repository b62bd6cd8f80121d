"""Linear-dual Koszul duality: K = dual of the bar construction, the
dual of an operad as a pre-cooperad (the extension of its dual
cooperad, labelled (("dual", x_1), ..., ("dual", x_k)) on a tree with k
vertices), the double-dual comparison, and the full verification
pipeline."""
from __future__ import annotations

import json

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


class DualityReport:
    """Dimension tables and flags for the double-dual comparison, and for
    each failing check a witness that locates the failure. A plain class:
    dataclasses would import inspect on every command-line start."""

    def __init__(self, operad: str, max_arity: int):
        self.operad = operad
        self.max_arity = max_arity
        self.dims_p, self.dims_bar, self.dims_k, self.dims_kk = {}, {}, {}, {}
        self.cb_to_kk_iso = self.composite_iso = self.homology_match = False
        self.witnesses = {}

    def __eq__(self, other):
        return type(other) is DualityReport and vars(self) == vars(other)

    def passed(self) -> bool:
        return self.cb_to_kk_iso and self.composite_iso and \
            self.homology_match

    def to_dict(self) -> dict:
        def tab(d):
            return {str(n): {str(k): v for k, v in sorted(t.items())}
                    for n, t in sorted(d.items())}

        out = {
            "operad": self.operad,
            "max_arity": self.max_arity,
            "dims": {"p": tab(self.dims_p), "bar": tab(self.dims_bar),
                     "k": tab(self.dims_k), "kk": tab(self.dims_kk)},
            "checks": {"cb_to_kk_iso": self.cb_to_kk_iso,
                       "composite_iso": self.composite_iso,
                       "homology_match": self.homology_match},
        }
        if self.witnesses:
            out["witnesses"] = self.witnesses
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def verify_kk(p: Operad, N) -> DualityReport:
    """Check that the double dual of the bar construction recovers the
    operad: the comparison maps are bijective and homology agrees. A
    failing check records where it fails: the arity and degree of the
    first rank deficit, or the first arity whose homology differs."""
    rep = DualityReport(operad=p.name or "operad", max_arity=N)
    bq = bar(p, N)
    cb = cobar(extend_cooperad(bq), N)
    _, _, th = theta(p, N, cb=cb)
    kp, kkp, dd = cb_to_kk(p, N, cb=cb)
    comp = {n: th[n].then(dd[n]) for n in range(1, N + 1)}
    for name, maps in (("cb_to_kk_iso", dd), ("composite_iso", comp)):
        where = _first_non_bijective(maps, N)
        setattr(rep, name, where is None)
        if where is not None:
            rep.witnesses[name] = where
    for n in range(1, N + 1):
        rep.dims_p[n] = p.term(n).dims()
        rep.dims_bar[n] = bq.term(n).dims()
        rep.dims_k[n] = kp.term(n).dims()
        rep.dims_kk[n] = kkp.term(n).dims()
        hk, hp = kkp.term(n).homology_table(), p.term(n).homology_table()
        if hk != hp and "homology_match" not in rep.witnesses:
            rep.witnesses["homology_match"] = {
                "arity": n, "kk": {str(k): v for k, v in sorted(hk.items())},
                "p": {str(k): v for k, v in sorted(hp.items())}}
    rep.homology_match = "homology_match" not in rep.witnesses
    return rep

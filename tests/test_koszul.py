import json

import pytest

from opdual.fields import Field, QQ, F2
from opdual.chain import ChainMap, dual_map
from opdual.trees import canonical_form, corolla, enumerate_trees
from opdual.operads import (
    Cooperad, PreCooperad, SymSeq, builtin_operad, check_operad_axioms,
    dualize, extend_cooperad, free_operad, free_precooperad,
    symseq_from_degrees, trivial_operad, truncate,
)
from opdual.barcobar import (
    _wbar_top, bar, bbar, closed_cobar_to_engine, co_w, cobar, cobar_engine,
    cobar_map, omega_sigma, precooperad_diagram, theta, w_construction,
)
from opdual.koszul import (
    cb_to_kk, dual_precooperad, koszul_dual, kp_iso, verify_kk,
)
from reference import double_dual_map

BIN3 = canonical_form([[1, 2], 3])


def com(N):
    return builtin_operad("com", QQ, N)


def ass(N):
    return builtin_operad("ass", QQ, N)


def test_koszul_dual_census_com():
    kp = koszul_dual(com(3), 3)
    assert kp.term(2).dims() == {-1: 1}
    assert kp.term(3).dims() == {-2: 3, -1: 1}
    assert kp.term(3).homology_table() == {-2: 2}
    assert check_operad_axioms(kp) == []


def test_koszul_dual_reverses_degrees():
    for p in (com(3), ass(3),
              free_operad(symseq_from_degrees(QQ, 3, {2: [1]}), 3)):
        bq = bar(p, 3)
        kp = koszul_dual(p, 3)
        for n in (1, 2, 3):
            bd = bq.term(n).dims()
            assert kp.term(n).dims() == {-k: v for k, v in bd.items()}


def test_koszul_dual_trivial_matches_free_on_shifted_dual():
    # binary generator in degree 0
    a = symseq_from_degrees(QQ, 3, {2: [0]})
    kp = koszul_dual(trivial_operad(a), 3)
    assert kp.term(2).dims() == {-1: 1}
    assert kp.term(3).dims() == {-2: 3}
    f = free_operad(symseq_from_degrees(QQ, 3, {2: [-1]}), 3)
    for n in (2, 3):
        assert kp.term(n).homology_table() == f.term(n).dims()


def test_koszul_dual_trivial_two_generators():
    # binary generators in degrees 0 and 1
    a = symseq_from_degrees(QQ, 3, {2: [0, 1]})
    kp = koszul_dual(trivial_operad(a), 3)
    assert kp.term(3).dims() == {-2: 3, -3: 6, -4: 3}
    f = free_operad(symseq_from_degrees(QQ, 3, {2: [-1, -2]}), 3)
    for n in (2, 3):
        assert kp.term(n).homology_table() == f.term(n).dims()


def test_koszul_dual_free_matches_trivial_on_shifted_dual():
    a = symseq_from_degrees(QQ, 3, {2: [0]})
    kp = koszul_dual(free_operad(a, 3), 3)
    assert kp.term(2).homology_table() == {-1: 1}
    assert kp.term(3).homology_table() == {}


def test_dual_precooperad_diagrams():
    for p in (com(3), ass(3),
              free_operad(symseq_from_degrees(QQ, 3, {2: [1]}), 3)):
        dp = dual_precooperad(p)
        for n in (2, 3):
            precooperad_diagram(dp, n).check_functorial()


def test_dual_precooperad_term_dims():
    dp = dual_precooperad(ass(3))
    assert dp.term(corolla(3)).dims() == {0: 6}
    assert dp.term(BIN3).dims() == {0: 4}


def test_kp_iso():
    # the dual of the bar agrees with the cobar of the dual, as matrices
    for p in (com(3), ass(3),
              free_operad(symseq_from_degrees(QQ, 3, {2: [0, 1]}), 3)):
        kp, cdp, iso = kp_iso(p, 3)
        for n in (1, 2, 3):
            assert iso[n].is_iso()
            assert cdp.term(n).dims() == kp.term(n).dims()


def _engine_kp_iso(p, cdp, n, kp):
    """kp_iso through the engine: the closed form sent into the end, each
    end element read on the top cell of every tree with the currying
    sign."""
    field = p.field
    eng = cobar_engine(cdp.q, n)

    def rule(d, klab):
        res = []
        for (T, hl), c in eng.incl.apply(d, {klab: field.one}).items():
            if hl[1] != _wbar_top(T):
                continue
            x = tuple(y for _, y in hl[2])
            V = T.num_vertices
            if (V * (V - 1) // 2 + V * sum(p._degrees(T, x))) % 2:
                c = field.neg(c)
            res.append((("dual", (T, x)), c))
        return res

    return closed_cobar_to_engine(cdp.q, cdp, eng).then(
        ChainMap.from_rule(eng.complex, kp.term(n), rule))


@pytest.mark.parametrize("make", [
    lambda: com(3), lambda: builtin_operad("ass", F2, 3),
    lambda: free_operad(symseq_from_degrees(QQ, 3, {2: [0, 1]}), 3)],
    ids=["com-q", "ass-f2", "free01-q"])
def test_kp_iso_matches_engine_reference(make):
    p = make()
    kp, cdp, iso = kp_iso(p, 3)
    for n in (2, 3):
        assert iso[n] == _engine_kp_iso(p, cdp, n, kp), n


def free01(N):
    # binary generators in degrees 0 and 1: the labels of the double dual
    # carry odd degrees, where a sign in the relabels would show
    return free_operad(symseq_from_degrees(QQ, N, {2: [0, 1]}), N)


@pytest.mark.parametrize("make, N", [
    (com, 4), (lambda N: builtin_operad("ass", F2, N), 3), (free01, 3)],
    ids=["com4-q", "ass3-f2", "free01-3-q"])
def test_cb_to_kk_matches_double_dual_route(make, N):
    # the one relabel equals the cobar of the evaluation iso B(p) ->
    # B(p)^vv, each of whose per-tree maps is an iso, followed by kp_iso
    p = make(N)
    cb = cobar(extend_cooperad(bar(p, N)), N)
    kp, kkp, dd = cb_to_kk(p, N, cb=cb)
    ddq, fam = double_dual_map(cb.q)
    assert len(fam) == sum(1 for n in range(1, N + 1)
                           for _ in enumerate_trees(n))
    assert all(f.is_iso() for f in fam.values())
    cm = cobar_map(cb, cobar(ddq, N), fam, N)
    _, _, iso = kp_iso(kp, N)
    for n in range(1, N + 1):
        assert dd[n].target == kkp.term(n)
        assert dd[n] == cm[n].then(iso[n]), n


def test_cb_to_kk_com():
    kp, kkp, out = cb_to_kk(com(3), 3)
    assert kkp.term(3).dims() == {0: 4, 1: 3}
    assert all(out[n].is_iso() for n in (1, 2, 3))
    assert kkp.term(3).homology_table() == {0: 1}


def test_cb_to_kk_ass():
    kp, kkp, out = cb_to_kk(ass(3), 3)
    assert all(out[n].is_iso() for n in (1, 2, 3))
    assert kkp.term(2).homology_table() == {0: 2}
    assert kkp.term(3).homology_table() == {0: 6}


def test_cb_to_kk_graded():
    p = free01(3)
    kp, kkp, out = cb_to_kk(p, 3)
    assert all(out[n].is_iso() for n in (1, 2, 3))
    for n in (1, 2, 3):
        assert kkp.term(n).homology_table() == p.term(n).homology_table()


def _checks(rep):
    return {c["name"]: c for c in rep["checks"]}


def test_verify_kk_reports():
    for p, dim3 in ((com(3), 1), (ass(3), 6)):
        rep = verify_kk(p, 3)
        assert set(rep) == {"tables", "checks"}
        assert [c["name"] for c in rep["checks"]] == [
            "cb_to_kk_iso", "composite_iso", "homology_match"]
        assert all(c["pass"] for c in rep["checks"])
        blob = json.loads(json.dumps(rep))
        assert _checks(blob)["homology_match"]["pass"] is True
        assert _checks(blob)["homology_match"]["witness"]["3"] == {
            "0": dim3}


def test_truncation_tower():
    # killing the arity-3 generator is a quotient of bar complexes, so
    # its dual includes one Koszul dual into the other, degreewise split
    p = com(3)
    p2 = truncate(p, 2)
    b3 = bar(p, 3).term(3)
    b2 = bar(p2, 3).term(3)

    def rule(d, lab):
        t, x = lab
        return [((t, x), 1)] if t.num_vertices == 2 else []

    proj = ChainMap.from_rule(b3, b2, rule)
    for k in b2.degrees():
        assert proj.matrix(k).rank() == b2.dim(k)
    inc = dual_map(proj)
    for k in inc.source.degrees():
        assert inc.matrix(k).rank() == inc.source.dim(k)
    killed = sum(1 for (t, x), _ in
                 ((l, None) for d in b3.basis.values() for l in d)
                 if t.num_vertices == 1)
    assert b3.total_dim() == b2.total_dim() + killed


def test_verify_kk_dualizes_the_bar_cooperad_once(monkeypatch):
    from opdual import koszul
    dualized = []

    def counted(x, orig=koszul.dualize):
        dualized.append(x.name)
        return orig(x)

    monkeypatch.setattr(koszul, "dualize", counted)
    assert all(c["pass"] for c in verify_kk(com(3), 3)["checks"])
    assert dualized.count("bar(com)") == 1


def test_verify_kk_builds_one_cobar(monkeypatch):
    # cb_to_kk relabels the cobar that verify_kk built: no second cobar,
    # no dual pre-cooperad of K(p)
    from opdual import koszul
    calls = {"cobar": 0, "dual_precooperad": 0}
    for name in calls:
        def counted(*args, name=name, orig=getattr(koszul, name)):
            calls[name] += 1
            return orig(*args)

        monkeypatch.setattr(koszul, name, counted)
    assert all(c["pass"] for c in verify_kk(com(3), 3)["checks"])
    assert calls == {"cobar": 1, "dual_precooperad": 0}


def test_kk_witness_names_failing_arity_and_degree(monkeypatch, capsys):
    from opdual import koszul
    from opdual.cli import main

    def broken(p, N, cb=None, orig=koszul.cb_to_kk):
        # zero the arity-3 comparison in degree 1, where cobar(3) has dim 3
        kp, kkp, out = orig(p, N, cb=cb)
        f = out[3]
        out[3] = ChainMap(f.source, f.target,
                          {k: m for k, m in f.mats.items() if k != 1},
                          check=False)
        return kp, kkp, out

    monkeypatch.setattr(koszul, "cb_to_kk", broken)
    rep = _checks(verify_kk(com(3), 3))
    assert not rep["cb_to_kk_iso"]["pass"]
    assert not rep["composite_iso"]["pass"]
    assert rep["homology_match"]["pass"]
    where = {"arity": 3, "degree": 1, "rank": 0, "dim": 3}
    assert {name: c["witness"] for name, c in rep.items()
            if not c["pass"]} == {"cb_to_kk_iso": where,
                                  "composite_iso": where}
    dims_p = {str(n): {"0": 1} for n in (1, 2, 3)}
    assert rep["homology_match"]["witness"] == dims_p
    assert main(["kk", "--operad", "com", "--max-arity", "3"]) == 1
    checks = _checks(json.loads(capsys.readouterr().out))
    assert checks["cb_to_kk_iso"]["witness"] == where
    assert checks["composite_iso"]["witness"] == where
    assert checks["homology_match"]["pass"]
    assert checks["homology_match"]["witness"] == dims_p


def test_kk_homology_witness_names_the_first_differing_arity(
        monkeypatch, capsys):
    # the comparison maps stay as built, so both iso checks pass; K(K(p))
    # cut to arity <= 2 has homology unlike com's from arity 3 on
    from opdual import koszul
    from opdual.cli import main

    def cut(p, N, cb=None, orig=koszul.cb_to_kk):
        kp, kkp, out = orig(p, N, cb=cb)
        return kp, truncate(kkp, 2), out

    monkeypatch.setattr(koszul, "cb_to_kk", cut)
    rep = _checks(verify_kk(com(4), 4))
    assert rep["cb_to_kk_iso"]["pass"] and rep["composite_iso"]["pass"]
    where = {"arity": 3, "kk": {}, "p": {"0": 1}}
    assert not rep["homology_match"]["pass"]
    assert rep["homology_match"]["witness"] == where
    assert main(["kk", "--operad", "com", "--max-arity", "4"]) == 1
    checks = _checks(json.loads(capsys.readouterr().out))
    assert not checks["homology_match"]["pass"]
    assert checks["homology_match"]["witness"] == where


def _unit_law_failures(x, N):
    """The structure maps of x with an arity-1 side (a circ or cocirc
    with m or n equal to 1, an m_map with a 1-leaf tree) that are not the
    unit law x (x) u <-> x, u (x) y <-> y, as (map, arity, input)."""
    one, bad = x.field.one, []
    if isinstance(x, PreCooperad):
        pt = corolla(1)
        ul = x.term(pt).basis[0][0]
        for t in (t for n in range(1, N + 1) for t in enumerate_trees(n)):
            for i in range(1, t.n + 1):
                for f, pair in ((x.m_map(t, i, pt), lambda l: (l, ul)),
                                (x.m_map(pt, 1, t), lambda l: (ul, l))):
                    for l, d in x.term(t).label_degree.items():
                        if f.apply(d, {pair(l): one}) != {l: one}:
                            bad.append(("m_map", t, i))
        return bad
    u = x.unit_label
    for m in range(1, N + 1):
        for l, d in x.term(m).label_degree.items():
            # l o_i u = l at every input i, and u o_1 l = l
            sides = [(m, i, 1, (l, u)) for i in range(1, m + 1)]
            for a, i, b, pair in sides + [(1, 1, m, (u, l))]:
                if isinstance(x, Cooperad):
                    ok = x.cocirc(a, i, b).apply(d, {l: one}) == {pair: one}
                else:
                    ok = x.circ(a, i, b).apply(d, {pair: one}) == {l: one}
                if not ok:
                    bad.append(("structure", a, i, b))
    return bad


def test_unit_maps_follow_one_rule(monkeypatch):
    # every structure map with an arity-1 side is the unit law, and no
    # construction's builder (circ_builder, cocirc_builder, _m_map) is
    # asked for one: the lookups SymSeq._structure and PreCooperad.m_map
    # build it themselves
    calls = []

    def recording(self, name, builder, into_top, orig=SymSeq._structure):
        def rec(p, m, i, n):
            calls.append((name, m, n))
            return builder(p, m, i, n)
        return orig(self, name, rec, into_top)

    monkeypatch.setattr(SymSeq, "_structure", recording)
    a = symseq_from_degrees(QQ, 3, {2: [0, 1], 3: [1]})
    c3, a3 = com(3), builtin_operad("ass", F2, 3)
    bc = bar(c3, 3)
    operads = [c3, a3, trivial_operad(a), free_operad(a, 3), truncate(a3, 2),
               w_construction(c3, 3), w_construction(a3, 3),
               cobar(extend_cooperad(bc), 3), omega_sigma(a, 3),
               koszul_dual(c3, 3)]
    cooperads = [bc, bar(ass(3), 3), dualize(c3), dualize(ass(3))]
    pres = [extend_cooperad(bc), dual_precooperad(ass(3)),
            free_precooperad(a, 3, "zero"), free_precooperad(a, 3, "constant"),
            bbar(c3, 3), co_w(extend_cooperad(bc), 3)]
    for cls in {type(q) for q in pres}:
        def rec(q, t, i, u, orig=cls._m_map):
            calls.append(("m_map", t.n, u.n))
            return orig(q, t, i, u)
        monkeypatch.setattr(cls, "_m_map", rec)
    for x in operads + cooperads + pres:
        assert _unit_law_failures(x, 3) == [], x.name
    # the recorders see the builds with both sides of arity >= 2
    for x in operads:
        x.circ(2, 1, 2)
    for x in cooperads:
        x.cocirc(2, 1, 2)
    for q in pres:
        q.m_map(corolla(2), 1, corolla(2))
    assert {c[0] for c in calls} == {"circ", "cocirc", "m_map"}
    assert [c for c in calls if 1 in c[1:]] == []


def _structure_maps(s, structure):
    """Every action of an adjacent transposition and every circ or cocirc
    of the symmetric sequence s."""
    N = s.N
    maps = [s.sigma_adj(n, i) for n in range(2, N + 1) for i in range(1, n)]
    maps += [getattr(s, structure)(m, i, n) for m in range(1, N + 1)
             for n in range(1, N + 2 - m) for i in range(1, m + 1)]
    return maps


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("make", [
    pytest.param(lambda F: trivial_operad(
        symseq_from_degrees(F, 4, {2: [0, 1]})), id="trivial01"),
    pytest.param(lambda F: free_operad(
        symseq_from_degrees(F, 4, {2: [1]}), 4), id="free1"),
])
def test_stored_entries_are_reduced_mod_p(make, p):
    # the rules emit signs -1 and products of them unreduced; every
    # matrix they fill stores an int in 1..p-1
    F, N = Field(p), 4
    op = make(F)
    wp, cb, th = theta(op, N)
    kp, kkp, dd = cb_to_kk(op, N, cb=cb)
    structures = ((op, "circ"), (bar(op, N), "cocirc"), (wp, "circ"),
                  (cb, "circ"), (kp, "circ"), (kkp, "circ"))
    maps = list(th.values()) + list(dd.values())
    for s, structure in structures:
        maps += _structure_maps(s, structure)
    mats = [m for f in maps for m in f.mats.values()]
    mats += [m for s, _ in structures for n in range(1, N + 1)
             for m in s.term(n).diff.values()]
    assert any(v == p - 1 for m in mats for v in m.data.values())
    for m in mats:
        assert all(type(v) is int and 0 < v < p for v in m.data.values())

"""End-to-end acceptance suite: one criterion per test, one PASS/FAIL
line per criterion on stdout."""
import json
import random
import time
from fractions import Fraction
from math import factorial

from opdual.fields import QQ, F2
from opdual.chain import ChainMap, is_quasi_iso, tensor_map_many
from opdual.trees import (
    _split_graft, adjacent_transposition, canonical_form, corolla,
    enumerate_trees,
)
from opdual.cubes import nu_general, wbar_relabel
from opdual.operads import (
    builtin_operad, dualize, extend_cooperad, free_operad, free_precooperad,
    is_quasi_cooperad, symseq_from_degrees, trivial_operad,
)
from opdual.barcobar import (
    _end_graft, _end_relabel, bar, bar_engine, bar_map, bbar,
    closed_bar_to_engine, closed_cobar_to_engine, closed_w_to_engine, co_w,
    co_w_resolution, cobar, cobar_engine, epsilon_trivial, flip_sharp, theta,
    theta_star, transpose_to_operad, transpose_to_precooperad,
    w_construction, w_engine, w_resolution,
)
from opdual.cli import load_operad_spec, main
from opdual.koszul import dual_precooperad, koszul_dual, verify_kk
from specs import anti_associative_spec


def _report(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _operad_map(p, q, fam, N):
    """All circ squares for the per-arity family fam: p -> q commute."""
    for m in range(1, N + 1):
        for n in range(1, N + 1):
            if m + n - 1 > N:
                continue
            for i in range(1, m + 1):
                lhs = p.circ(m, i, n).then(fam[m + n - 1])
                rhs = tensor_map_many(
                    p.field, [fam[m], fam[n]],
                    source=p.circ(m, i, n).source).then(q.circ(m, i, n))
                if lhs != rhs:
                    return False
    return True


def _int_partitions(n, mx=None):
    mx = mx or n
    if n == 0:
        yield ()
        return
    for k in range(min(n, mx), 0, -1):
        for rest in _int_partitions(n - k, k):
            yield (k,) + rest


def _total_partitions(n, _memo={1: 1}):
    """Independent census of leaf-labeled trees by the root partition."""
    if n not in _memo:
        total = 0
        for lam in _int_partitions(n):
            if len(lam) < 2:
                continue
            cnt = factorial(n)
            mult = {}
            for s in lam:
                cnt //= factorial(s)
                mult[s] = mult.get(s, 0) + 1
            for m in mult.values():
                cnt //= factorial(m)
            prod = 1
            for s in lam:
                prod *= _total_partitions(s)
            total += cnt * prod
        _memo[n] = total
    return _memo[n]


def test_criterion_01_tree_census():
    ok = all(len(enumerate_trees(n)) == _total_partitions(n)
             for n in range(1, 6))
    t0 = time.monotonic()
    ok = ok and len(enumerate_trees(6)) == 2752 == _total_partitions(6)
    ok = ok and time.monotonic() - t0 < 10
    _report(1, "tree census vs recurrence oracle", ok)


def test_criterion_02_bar_homology_com():
    ok = True
    for field in (QQ, F2):
        bq = bar(builtin_operad("com", field, 4), 4)
        for n, dim in ((2, 1), (3, 2), (4, 6)):
            tab = bq.term(n).homology_table()
            ok = ok and tab == {n - 1: dim}
            chi = sum((-1) ** (n - 1 - d) * v
                      for d, v in bq.term(n).dims().items())
            ok = ok and chi == dim
    _report(2, "bar homology of com, arities 2-4, Q and F2", ok)


def test_criterion_02b_bar_homology_com_arity5():
    bq = bar(builtin_operad("com", F2, 5), 5)
    ok = bq.term(5).homology_table() == {4: 24}
    _report(2, "bar homology of com, arity 5 over F2", ok)


def test_criterion_03_bar_homology_ass():
    bq = bar(builtin_operad("ass", QQ, 4), 4)
    ok = True
    for n, dim in ((2, 2), (3, 6), (4, 24)):
        ok = ok and bq.term(n).homology_table() == {n - 1: dim}
        chi = sum((-1) ** (n - 1 - d) * v
                  for d, v in bq.term(n).dims().items())
        ok = ok and chi == dim
    _report(3, "bar homology of ass, arities 2-4", ok)


def test_criterion_03b_bar_homology_ass_arity6(capsys):
    # the command line builds the planar part of each bar term, 197
    # labels in arity 6 in place of 141,840
    ok = True
    for field in ("q", "f2"):
        ok = ok and main(["bar", "--operad", "ass", "--max-arity", "6",
                          "--homology", "--field", field]) == 0
        tables = json.loads(capsys.readouterr().out)["tables"]
        ok = ok and tables == {str(n): {str(n - 1): factorial(n)}
                               for n in range(1, 7)}
    _report(3, "bar homology of ass, arities 1-6, Q and F2, command line",
            ok)


def _signed_permutation(f):
    """Every matrix of f has one entry +-1 in each row and each column."""
    signs = (f.source.field.one, f.source.field.neg(f.source.field.one))
    for k in f.source.degrees():
        m = f.matrix(k)
        if (sorted(i for i, _ in m.data) != list(range(m.nrows))
                or sorted(j for _, j in m.data) != list(range(m.ncols))
                or any(v not in signs for v in m.data.values())):
            return False
    return True


def test_criterion_04_theta():
    a = symseq_from_degrees(QQ, 4, {2: [0]})
    ps = [builtin_operad("com", QQ, 4), builtin_operad("ass", QQ, 4),
          trivial_operad(a), free_operad(a, 4)]
    ok = True
    for p in ps:
        wp, cb, th = theta(p, 4)
        ok = ok and all(th[n].is_iso() and _signed_permutation(th[n])
                        for n in range(1, 5))
        ok = ok and _operad_map(wp, cb, th, 4)
    wc = w_construction(builtin_operad("com", QQ, 3), 3)
    ok = ok and wc.term(3).dims() == {0: 4, 1: 3}
    _report(4, "cubical-to-cobar comparison is an operad iso, arity <= 4",
            ok)


def test_criterion_05_w_resolution():
    ok = True
    for name in ("com", "ass"):
        p = builtin_operad(name, QQ, 4)
        wp, etas, zetas = w_resolution(p, 4)
        for n in range(1, 5):
            ok = ok and zetas[n].then(etas[n]) == \
                ChainMap.identity(p.term(n))
            ok = ok and is_quasi_iso(etas[n])
    _report(5, "cubical resolution: retraction and acyclic cone", ok)


def test_criterion_06_suspension_comparison():
    a = symseq_from_degrees(QQ, 4, {2: [0], 3: [0]})
    p = trivial_operad(a)
    cb, om, eps = epsilon_trivial(a, 4)
    wp, etas, zetas = w_resolution(p, 4)
    _, _, th = theta(p, 4, wp=wp, cb=cb)
    rs = flip_sharp(a, 4, om)
    ok = True
    for n in range(1, 5):
        ok = ok and is_quasi_iso(eps[n])
        ok = ok and zetas[n].then(th[n]).then(eps[n]) == rs[n]
    _report(6, "loop-suspension collapse for trivial structure maps", ok)


def test_criterion_07_double_dual():
    ok = True
    for name in ("com", "ass"):
        p = builtin_operad(name, QQ, 4)
        rep = verify_kk(p, 4)
        ok = ok and all(c["pass"] for c in rep["checks"])
        if name == "com":
            ok = ok and rep["tables"]["3"] == {"0": 4, "1": 3}
    _report(7, "double dual recovers the operad, arity <= 4", ok)


def test_criterion_07b_composite_operad_map():
    # the full composite through both comparisons respects composition
    from opdual.koszul import cb_to_kk
    p = builtin_operad("com", QQ, 4)
    wp, cb, th = theta(p, 4)
    _, kkp, dd = cb_to_kk(p, 4, cb=cb)
    comp = {n: th[n].then(dd[n]) for n in range(1, 5)}
    ok = all(comp[n].is_iso() for n in range(1, 5))
    ok = ok and _operad_map(wp, kkp, comp, 4)
    _report(7, "composite comparison is an operad isomorphism", ok)


def test_criterion_08_free_trivial_duality():
    ok = True
    for degs in ([0], [0, 1]):
        a = symseq_from_degrees(QQ, 4, {2: degs})
        dual_sh = symseq_from_degrees(QQ, 4, {2: [-1 - d for d in degs]})
        kt = koszul_dual(trivial_operad(a), 4)
        fr = free_operad(dual_sh, 4)
        kf = koszul_dual(free_operad(a, 4), 4)
        tr = trivial_operad(dual_sh)
        for n in range(2, 5):
            ok = ok and kt.term(n).homology_table() == fr.term(n).dims()
            ok = ok and kf.term(n).homology_table() == tr.term(n).dims()
    _report(8, "duals of trivial and free structures swap, arity <= 4", ok)


def test_criterion_09_co_w_rigidification():
    q = extend_cooperad(bar(builtin_operad("com", QQ, 3), 3))
    cw, etas, zetas = co_w_resolution(q, 3)
    ths = theta_star(q, 3)
    ok = True
    for n in (1, 2, 3):
        for t in enumerate_trees(n):
            ok = ok and etas[t].then(zetas[t]) == \
                ChainMap.identity(q.term(t))
            ok = ok and is_quasi_iso(etas[t])
            ok = ok and is_quasi_iso(ths[t])
    ok = ok and is_quasi_cooperad(q, 3)[0]
    ok = ok and is_quasi_cooperad(cw, 3)[0]
    bcq = extend_cooperad(bar(cobar(q, 3), 3))
    ok = ok and is_quasi_cooperad(bcq, 3)[0]
    a = symseq_from_degrees(QQ, 3, {2: [0], 3: [0]})
    bad, _ = is_quasi_cooperad(free_precooperad(a, 3, mode="constant"), 3)
    ok = ok and not bad
    _report(9, "dual resolution, rigidification, corrupted detector", ok)


def test_criterion_10_adjunction():
    p = builtin_operad("com", QQ, 3)
    bp = bbar(p, 3)
    ok = True

    # zero away from the pinned arity-1 unit
    q = extend_cooperad(bar(p, 3))
    cq = cobar(q, 3)
    phi = {n: ChainMap.zero(p.term(n), cq.term(n)) for n in (2, 3)}
    ul = cq.term(1).basis[0][0]
    phi[1] = ChainMap.from_rule(p.term(1), cq.term(1),
                                lambda d, l: [(ul, 1)])
    psi = transpose_to_precooperad(phi, bp, cq)
    back = transpose_to_operad(psi, bp, cq)
    ok = ok and all(back[n] == phi[n] for n in (1, 2, 3))

    # unit and seeded diagonal families on the quotient construction
    cq2 = cobar(bp, 3)
    rng = random.Random(41)
    scales = [QQ.one] + [QQ.of(rng.randint(1, 99)) for _ in range(10)]
    for c in scales:
        psi = {}
        for n in (1, 2, 3):
            s = QQ.one
            for _k in range(n - 1):
                s = QQ.mul(s, c)
            for t in enumerate_trees(n):
                i = ChainMap.identity(bp.term(t))
                psi[t] = ChainMap(bp.term(t), bp.term(t),
                                  {k: i.matrix(k).scale(s)
                                   for k in bp.term(t).degrees()})
        phi2 = transpose_to_operad(psi, bp, cq2)
        psi2 = transpose_to_precooperad(phi2, bp, cq2)
        ok = ok and all(psi2[t] == psi[t] for t in psi)
        phi3 = transpose_to_operad(psi2, bp, cq2)
        ok = ok and all(phi3[n] == phi2[n] for n in (1, 2, 3))
    _report(10, "transpose round trips: zero, unit, 10 seeded maps", ok)


def _closed_cobar_matches_engine(q, N, relations="covers"):
    """closed_cobar_to_engine is an iso in every arity (a chain map by
    construction) and carries the closed-form actions and compositions to
    the engine's, _end_relabel and _end_graft."""
    field = q.field
    cb = cobar(q, N)
    ends = {n: cobar_engine(q, n, relations) for n in range(1, N + 1)}
    phi = {n: closed_cobar_to_engine(q, cb, ends[n]) for n in ends}
    ok = all(f.is_iso() for f in phi.values())
    for n in range(2, N + 1):
        for i in range(1, n):
            act = _end_relabel(q, ends[n], ends[n],
                               adjacent_transposition(n, i),
                               lambda T2, inv: wbar_relabel(field, T2, inv))
            ok = ok and cb.sigma_adj(n, i).then(phi[n]) == phi[n].then(act)
    for m in range(1, N + 1):
        for n in range(1, N + 2 - m):
            for i in range(1, m + 1):
                circ = cb.circ(m, i, n)
                if circ.source.total_dim() == 0:
                    continue
                graft_ = _end_graft(
                    q, i, ends[m], ends[n], ends[m + n - 1],
                    lambda V: _split_graft(V, i, m, n),
                    lambda V, T, U: nu_general(field, T, i, U))
                rhs = tensor_map_many(field, [phi[m], phi[n]],
                                      source=circ.source,
                                      target=graft_.source).then(graft_)
                ok = ok and circ.then(phi[m + n - 1]) == rhs
    return ok


def test_criterion_11_engine_cross_validation():
    ok = True
    for name in ("com", "ass"):
        p = builtin_operad(name, QQ, 4)
        bq, wp = bar(p, 4), w_construction(p, 4)
        for n in (2, 3, 4):
            ok = ok and closed_bar_to_engine(p, bq, bar_engine(p, n)).is_iso()
            ok = ok and closed_w_to_engine(p, wp, w_engine(p, n)).is_iso()
        for n in (2, 3):
            for mk in (bar_engine, w_engine):
                a = mk(p, n, relations="covers")
                b = mk(p, n, relations="all")
                ok = ok and a.complex.dims() == b.complex.dims()
                ok = ok and a.complex.homology_table() == \
                    b.complex.homology_table()

    def bar_of(name, field, N):
        return extend_cooperad(bar(builtin_operad(name, field, N), N))

    gen = symseq_from_degrees(QQ, 4, {2: [0]})
    for q in (bar_of("com", QQ, 4), bar_of("ass", F2, 4),
              extend_cooperad(bar(trivial_operad(gen), 4)),
              extend_cooperad(bar(free_operad(gen, 4), 4)),
              dual_precooperad(builtin_operad("ass", QQ, 4)),
              co_w(bar_of("com", QQ, 4), 4)):
        ok = ok and _closed_cobar_matches_engine(q, 4)
    # co-W of bar(ass) runs at arity 3: at arity 4 it alone takes longer
    # than the rest of the suite
    ok = ok and _closed_cobar_matches_engine(co_w(bar_of("ass", F2, 3), 3), 3)
    ok = ok and _closed_cobar_matches_engine(bar_of("com", QQ, 3), 3,
                                             relations="all")
    _report(11, "closed forms match the coend and end engines", ok)


def test_criterion_12_homotopy_invariance():
    p = builtin_operad("com", QQ, 3)
    wp, etas, zetas = w_resolution(p, 3)
    bw, bp = bar(wp, 3), bar(p, 3)
    beta = bar_map(wp, p, etas, bw, bp, 3)
    ok = all(is_quasi_iso(beta[n]) for n in (1, 2, 3))
    # compatibility with the decomposition maps
    for m in (1, 2):
        for n in (1, 2):
            if m + n - 1 > 3:
                continue
            for i in range(1, m + 1):
                lhs = beta[m + n - 1].then(bp.cocirc(m, i, n))
                rhs = bw.cocirc(m, i, n).then(tensor_map_many(
                    QQ, [beta[m], beta[n]],
                    source=bw.cocirc(m, i, n).target,
                    target=bp.cocirc(m, i, n).target))
                ok = ok and lhs == rhs
    _report(12, "bar sends the resolution to a quasi-isomorphism", ok)


def _euler_series(x, N):
    """g_X(t) = sum_n chi(X(n)) t^n / n!, up to t^N, from the dimension
    tables alone: the coefficients of t^0..t^N as Fractions."""
    return [Fraction(0)] + [
        Fraction(sum(-d if k % 2 else d for k, d in x.term(n).dims().items()),
                 factorial(n)) for n in range(1, N + 1)]


def _compose_series(f, g):
    """f(g(t)) truncated at the length of f, for g without constant
    term."""
    out = [Fraction(0)] * len(f)
    power = [Fraction(1)] + out[1:]
    for c in f[1:]:
        power = [sum(power[a] * g[k - a] for a in range(k + 1))
                 for k in range(len(f))]
        out = [a + c * b for a, b in zip(out, power)]
    return out


def test_criterion_13_euler_characteristic_series(tmp_path):
    # the generating series of the Euler characteristics, read off the
    # dimension tables with no tree: bar is a sum over trees with one
    # suspended factor per vertex, so g_B(P) is the composition inverse
    # of g_P (Ginzburg and Kapranov, Duke Math. J. 76, 1994, section 3),
    # W(P) resolves P and K(P) is the dual of B(P), so they keep the
    # series of P and of B(P)
    anti = tmp_path / "anti.json"
    anti.write_text(json.dumps(anti_associative_spec(QQ)))
    ok = True
    for p in (builtin_operad("com", QQ, 5), builtin_operad("ass", QQ, 4),
              free_operad(symseq_from_degrees(QQ, 5, {2: [1]}), 5),
              trivial_operad(symseq_from_degrees(QQ, 5, {2: [0, 1]})),
              load_operad_spec(str(anti))):
        N = p.N
        gp, gb = _euler_series(p, N), _euler_series(bar(p, N), N)
        ok = ok and _compose_series(gp, gb) == [0, 1] + [0] * (N - 1)
        ok = ok and _euler_series(w_construction(p, N), N) == gp
        ok = ok and _euler_series(koszul_dual(p, N), N) == gb
    _report(13, "Euler series: g_P(g_B(P)) = t, g_W(P) = g_P, g_K(P) = g_B(P)",
            ok)

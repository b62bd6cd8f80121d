import itertools
import json
import random
import weakref

import pytest

from opdual.fields import QQ, F2, Field
from opdual.chain import (
    ChainComplex, ChainMap, _place, is_quasi_iso, k_complex, tensor_many,
    tensor_map_many,
)
from opdual.cubes import _chunks
from opdual.trees import (
    Tree, _vertex_arities, _vertex_relabel, adjacent_transposition,
    canonical_form, corolla, enumerate_trees, fragments, graft,
    perm_to_adjacents,
)
from opdual import cli, operads
from opdual.operads import (
    Cooperad, ExtendedCooperad, Operad, SymSeq, _contraction, _inverse_perm,
    _prebuilt, builtin_operad, check_operad_axioms, dualize, extend_cooperad,
    free_operad, free_precooperad, graft_perm, is_quasi_cooperad,
    symseq_from_degrees, trivial_operad, truncate,
)
from opdual.barcobar import bar, bbar, co_w, w_construction
from opdual.koszul import dual_precooperad

from test_chain import permute_factors
from test_trees import compose_perms

BIN3 = canonical_form([[1, 2], 3])
BIN4 = canonical_form([[[1, 2], 3], 4])


def random_perm(rng, n):
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return dict(zip(range(1, n + 1), vals))


def test_graft_perm_matches_trees():
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.choice([(2, 2), (2, 3), (3, 2), (3, 3)])
        t = rng.choice(enumerate_trees(m))
        u = rng.choice(enumerate_trees(n))
        sigma = random_perm(rng, m)
        tau = random_perm(rng, n)
        j = rng.randint(1, m)
        rho = graft_perm(sigma, j, tau)
        assert graft(t, j, u).relabel(rho) == \
            graft(t.relabel(sigma), sigma[j], u.relabel(tau))


def _perms(n):
    return [dict(zip(range(1, n + 1), pp))
            for pp in itertools.permutations(range(1, n + 1))]


def test_graft_perm_composes():
    # rho(sigma sigma', j, tau tau') = rho(sigma, sigma'(j), tau) o
    # rho(sigma', j, tau'): one of the two lemmas that let the equivariance
    # check read only the generators of Sigma_m x Sigma_n
    for m in range(1, 6):
        for n in range(1, 7 - m):
            for sigma, sigma2 in itertools.product(_perms(m), repeat=2):
                for tau, tau2 in itertools.product(_perms(n), repeat=2):
                    for j in range(1, m + 1):
                        assert graft_perm(compose_perms(sigma, sigma2), j,
                                          compose_perms(tau, tau2)) == \
                            compose_perms(graft_perm(sigma, sigma2[j], tau),
                                          graft_perm(sigma2, j, tau2))


@pytest.mark.parametrize("name", ["com", "ass"])
@pytest.mark.parametrize("field", [QQ, F2], ids=["Q", "F2"])
def test_act_is_a_homomorphism(name, field):
    # act(n, pi o pi') = act(n, pi') then act(n, pi): the other lemma
    p = builtin_operad(name, field, 4)
    for n in range(2, 5):
        for pi, pi2 in itertools.product(_perms(n), repeat=2):
            assert p.act(n, compose_perms(pi, pi2)) == \
                p.act(n, pi2).then(p.act(n, pi))


def test_com_axioms():
    p = builtin_operad("com", QQ, 4)
    assert check_operad_axioms(p) == []
    assert p.term(3).dims() == {0: 1}


def test_ass_axioms():
    p = builtin_operad("ass", QQ, 4)
    assert check_operad_axioms(p) == []
    assert p.term(3).dims() == {0: 6}
    assert p.term(4).dims() == {0: 24}


def test_ass_splice_oracle():
    # composition substitutes the second word as a block; two hand cases
    p = builtin_operad("ass", QQ, 4)
    assert p.circ(2, 1, 2).image(((2, 1), (2, 1))) == {(3, 2, 1): 1}
    assert p.circ(2, 2, 2).image(((1, 2), (2, 1))) == {(1, 3, 2): 1}
    assert p.circ(3, 2, 2).image(((3, 1, 2), (1, 2))) == {(4, 1, 2, 3): 1}


def test_ass_action_left():
    p = builtin_operad("ass", QQ, 3)
    perms = [dict(zip((1, 2, 3), pp))
             for pp in itertools.permutations((1, 2, 3))]
    for sigma in perms:
        # act from adjacents agrees with the direct letterwise action
        f = p.act(3, sigma)
        for w in itertools.permutations((1, 2, 3)):
            assert f.apply(0, {w: 1}) == {tuple(sigma[x] for x in w): 1}
        for tau in perms:
            assert p.act(3, tau).then(f) == p.act(3, compose_perms(sigma, tau))


def test_free_operad_binary_generator():
    a = symseq_from_degrees(QQ, 4, {2: [0]})
    p = free_operad(a, 4)
    assert p.term(2).total_dim() == 1
    assert p.term(3).total_dim() == 3
    assert p.term(4).total_dim() == 15
    assert check_operad_axioms(p) == []


def test_free_operad_graded_signs():
    # odd-degree binary generator exercises every Koszul sign
    a = symseq_from_degrees(QQ, 4, {2: [1]})
    p = free_operad(a, 4)
    assert p.term(3).dims() == {2: 3}
    assert p.term(4).dims() == {3: 15}
    assert check_operad_axioms(p) == []


def test_trivial_operad_axioms():
    a = symseq_from_degrees(QQ, 3, {2: [0, 1], 3: [1]})
    p = trivial_operad(a)
    assert check_operad_axioms(p) == []
    assert p.circ(2, 1, 2).is_zero()


def test_truncate():
    p = builtin_operad("ass", QQ, 4)
    q = truncate(p, 2)
    assert q.name == "ass|<=2"
    assert q.term(3).total_dim() == 0
    assert q.term(2).dims() == {0: 2}
    assert q.circ(2, 1, 2).is_zero()
    assert check_operad_axioms(q) == []
    with pytest.raises(ValueError):
        truncate(p, 5)


def test_contract_and_compose_ass():
    p = builtin_operad("ass", QQ, 4)
    f = p.compose_along_tree(BIN3)
    # factors ordered ({1,2} vertex, then root); inner word in the block
    assert f.apply(0, {((2, 1), (1, 2)): 1}) == {(2, 1, 3): 1}
    assert f.apply(0, {((1, 2), (2, 1)): 1}) == {(3, 1, 2): 1}


def test_compose_order_invariance():
    # contracting the edges of a tree in any order gives the same map
    for p in (builtin_operad("ass", QQ, 4),
              free_operad(symseq_from_degrees(QQ, 4, {2: [1]}), 4)):
        for t in enumerate_trees(4):
            if not t.edges():
                continue
            base = None
            for order in itertools.permutations(t.edges()):
                cur, g = t, ChainMap.identity(p.tree_complex(t))
                for e in order:
                    g = g.then(p.contract_map(cur, e))
                    cur = cur.contract(e)
                g = g.then(ChainMap.from_rule(
                    p.tree_complex(cur), p.term(4), lambda d, l: [(l[0], 1)]))
                base = g if base is None else base
                assert g == base
            assert base == p.compose_along_tree(t)


def test_tree_relabel_composes():
    rng = random.Random(3)
    p = free_operad(symseq_from_degrees(QQ, 4, {2: [1]}), 4)
    for t in (BIN3, BIN4, canonical_form([[1, 2], [3, 4]])):
        n = t.n
        for _ in range(4):
            sigma = random_perm(rng, n)
            tau = random_perm(rng, n)
            f = p.tree_relabel(t, sigma)
            assert f.is_iso()
            g = p.tree_relabel(t.relabel(sigma), tau)
            assert f.then(g) == p.tree_relabel(t, compose_perms(tau, sigma))


def test_dualize_roundtrip():
    for name in ("com", "ass"):
        p = builtin_operad(name, QQ, 3)
        q = dualize(p)
        assert isinstance(q, Cooperad)
        assert q.term(3).dims() == p.term(3).dims()
        back = dualize(q)
        assert isinstance(back, Operad)
        assert check_operad_axioms(back) == []
        assert back.term(3).dims() == p.term(3).dims()


def test_dualize_graded():
    p = free_operad(symseq_from_degrees(QQ, 3, {2: [1]}), 3)
    q = dualize(p)
    assert q.term(3).dims() == {-2: 3}
    assert check_operad_axioms(dualize(q)) == []


def test_dualize_builds_on_its_own_dual_terms():
    # the actions and the term side of circ and cocirc are built on the
    # dual terms themselves, not on fresh copies of them
    q = dualize(builtin_operad("ass", QQ, 4))
    qq = dualize(q)
    for n in range(2, 5):
        for x in (q, qq):
            s = adjacent_transposition(n, 1)
            assert x.act(n, s).source is x.term(n)
            assert x.act(n, s).target is x.term(n)
    for m, i, n in ((2, 1, 2), (2, 2, 3), (3, 2, 2)):
        assert q.cocirc(m, i, n).source is q.term(m + n - 1)
        assert qq.circ(m, i, n).target is qq.term(m + n - 1)
    assert check_operad_axioms(qq) == []


def test_extend_cooperad_dims_and_functorial():
    q = extend_cooperad(dualize(builtin_operad("ass", QQ, 4)))
    assert q.term(corolla(3)).dims() == {0: 6}
    assert q.term(BIN3).dims() == {0: 4}
    assert q.term(BIN4).dims() == {0: 8}
    # two cover chains from the corolla up to BIN4 agree
    t0 = corolla(4)
    e1 = frozenset({1, 2})
    e2 = frozenset({1, 2, 3})
    mid1 = BIN4.contract(e2)
    mid2 = BIN4.contract(e1)
    via1 = q.cover_map(t0, mid1, e1).then(q.cover_map(mid1, BIN4, e2))
    via2 = q.cover_map(t0, mid2, e2).then(q.cover_map(mid2, BIN4, e1))
    assert via1 == via2
    assert q.expansion_map(t0, BIN4) in (via1, via2)


def test_extend_cooperad_graded_functorial():
    p = free_operad(symseq_from_degrees(QQ, 4, {2: [1]}), 4)
    q = extend_cooperad(dualize(p))
    for t in enumerate_trees(4):
        for u in enumerate_trees(4):
            if not (t.leq(u) and t != u):
                continue
            new = sorted(u.clusters - t.clusters,
                         key=lambda c: tuple(sorted(c)))
            if len(new) < 2:
                continue
            for order in itertools.permutations(new):
                cur, g = t, ChainMap.identity(q.term(t))
                for e in order:
                    nxt = canonical_form_add(cur, e)
                    g = g.then(q.cover_map(cur, nxt, e))
                    cur = nxt
                assert g == q.expansion_map(t, u)


def canonical_form_add(t, e):
    from opdual.trees import Tree
    return Tree(t.n, list(t.clusters) + [e])


def test_extend_cooperad_relabel():
    rng = random.Random(11)
    q = extend_cooperad(dualize(builtin_operad("ass", QQ, 3)))
    for _ in range(5):
        sigma = random_perm(rng, 3)
        f = q.relabel_map(BIN3, sigma)
        assert f.is_iso()


def test_quasi_cooperad():
    q = extend_cooperad(dualize(builtin_operad("com", QQ, 3)))
    ok, wit = is_quasi_cooperad(q, 3)
    assert ok and wit == []


def test_free_precooperad_dims():
    a = symseq_from_degrees(QQ, 3, {2: [0], 3: [0]})
    fz = free_precooperad(a, 3, mode="zero")
    assert fz.term(BIN3).dims() == {0: 1}          # a(2) (x) a(2)
    assert fz.term(corolla(3)).dims() == {0: 1}    # a(3)
    fc = free_precooperad(a, 3, mode="constant")
    assert fc.term(BIN3).dims() == {0: 2}          # a(3) + a(2) (x) a(2)
    assert fc.term(corolla(3)).dims() == {0: 1}


def test_free_precooperad_quasi():
    a = symseq_from_degrees(QQ, 3, {2: [0], 3: [0]})
    ok, _ = is_quasi_cooperad(free_precooperad(a, 3, mode="zero"), 3)
    assert ok
    ok, wit = is_quasi_cooperad(free_precooperad(a, 3, mode="constant"), 3)
    assert not ok and wit


def test_free_precooperad_relabel_and_covers():
    rng = random.Random(5)
    a = symseq_from_degrees(QQ, 4, {2: [1], 3: [0]})
    for mode in ("zero", "constant"):
        f = free_precooperad(a, 4, mode=mode)
        for _ in range(4):
            sigma = random_perm(rng, 3)
            g = f.relabel_map(BIN3, sigma)
            assert g.is_iso()
        cov = f.cover_map(corolla(3), BIN3, frozenset({1, 2}))
        if mode == "zero":
            assert cov.is_zero()
        else:
            assert not cov.is_zero()


def test_com_f2():
    p = builtin_operad("com", F2, 3)
    assert check_operad_axioms(p) == []


def _count_tensor_maps(monkeypatch):
    """Count the tensor_map_many builds of the operads module."""
    from opdual import operads
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return tensor_map_many(*args, **kwargs)

    monkeypatch.setattr(operads, "tensor_map_many", counted)
    return calls


def test_equivariance_skips_pairs_with_a_zero_term(tmp_path, monkeypatch):
    # one binary generator and no other term: every pair (m, n) has a zero
    # term among m, n, m+n-1, so no side of equivariance is built (at 7
    # the loop over every permutation pair took about a second)
    import json
    from opdual.cli import load_operad_spec
    spec = tmp_path / "gen.json"
    spec.write_text(json.dumps({"max_arity": 7, "terms": {
        "2": {"basis": [{"name": "e", "degree": 0}], "d": []}},
        "sigma": {"2": {"1": [[0, 0, 1]]}}}))
    p = load_operad_spec(str(spec))
    calls = _count_tensor_maps(monkeypatch)
    assert check_operad_axioms(p) == []
    assert not calls


def test_axioms_walk_only_the_nonzero_arities(monkeypatch):
    # one binary generator up to arity 400: the associativity triples and
    # the equivariance pairs read only arity 2, so the check asks for a
    # term a bounded number of times per arity, not once per triple
    N = 400
    p = trivial_operad(symseq_from_degrees(QQ, N, {2: [0]}))
    calls = []

    def counted(self, n, orig=SymSeq.term):
        calls.append(n)
        # stop a cubic walk early instead of timing it out
        assert len(calls) <= 4 * N, "term read more than 4 N times"
        return orig(self, n)

    monkeypatch.setattr(SymSeq, "term", counted)
    assert check_operad_axioms(p) == []
    assert calls


def test_equivariance_builds_each_sigma_tau_map_once(monkeypatch):
    # a passing operad is read on the generators (s_i, 1) and (1, s_k)
    # alone, one build each, (m - 1) + (n - 1) per (m, n): 1+1 + 1+2 + 2+1,
    # not the m! + n! = 2+2 + 2+6 + 6+2 of every sigma and every tau
    p = builtin_operad("ass", QQ, 4)
    calls = _count_tensor_maps(monkeypatch)
    assert check_operad_axioms(p) == []
    assert len(calls) == 8


def test_axioms_of_ass_at_arity_6_build_few_arity_6_actions(monkeypatch):
    # the generators' targets rho and their bubble-sort prefixes: reading
    # every (sigma, tau) built 711 of the 720 actions of arity 6
    built = []

    def counted(self, n, images, orig=SymSeq._act):
        built.append(n)
        return orig(self, n, images)

    monkeypatch.setattr(SymSeq, "_act", counted)
    assert check_operad_axioms(builtin_operad("ass", F2, 6)) == []
    assert 0 < built.count(6) <= 30


def _half_blind_ass(keep):
    """ass in arity <= 3 with circ(2, i, 2)(a (x) b) the ass composite of
    a with the identity word (keep == 0) or of the identity word with b
    (keep == 1): equivariant in sigma alone or in tau alone."""
    ass = builtin_operad("ass", QQ, 3)
    terms = {n: ass.term(n) for n in range(1, 4)}

    def circ_builder(q, m, i, n):
        f = ass.circ(m, i, n)
        return ChainMap.from_rule(
            q.pair_complex(m, n), q.term(m + n - 1),
            lambda d, ab: f.apply(d, {(ab[0], (1, 2)) if keep == 0
                                      else ((1, 2), ab[1]): 1}).items())

    return Operad(QQ, 3, terms, ass.sigma_adj, circ_builder)


@pytest.mark.parametrize("keep", [0, 1], ids=["tau-break", "sigma-break"])
def test_equivariance_sees_a_break_in_one_factor_alone(keep):
    # the check reads every sigma and every tau: an operad that breaks
    # equivariance only in tau (or only in sigma) fails it
    assert check_operad_axioms(_half_blind_ass(keep)) == [
        "equivariance (2,1,2)", "equivariance (2,2,2)"]


# -- each action as one product on the action of its prefix ----------------

def _chained_act(p, n, perm):
    """act(n, perm) as the chain identity, s_j1, ..., s_jk of the word of
    perm, left to right: the route before each action was one product."""
    f = ChainMap.identity(p.term(n))
    for j in perm_to_adjacents(perm):
        f = f.then(p.sigma_adj(n, j))
    return f


def _file_spec(p, seed):
    """p as a file: spec, with the basis of every arity in a seeded
    order."""
    rng = random.Random(seed)
    order = {}
    for n in range(2, p.N + 1):
        order[n] = list(p.term(n).label_degree)
        rng.shuffle(order[n])

    def name(lab):
        return "-".join(map(str, lab))

    def triples(f, src, tgt):
        row = {l: i for i, l in enumerate(tgt)}
        return [[row[l2], j, int(c)] for j, l in enumerate(src)
                for l2, c in f.apply(0, {l: 1}).items()]

    spec = {"field": {"p": p.field.char} if p.field.char else "Q",
            "max_arity": p.N,
            "terms": {str(n): {"basis": [{"name": name(l), "degree": 0}
                                         for l in order[n]], "d": []}
                      for n in order},
            "sigma": {str(n): {str(i): triples(p.sigma_adj(n, i), order[n],
                                               order[n])
                               for i in range(1, n)} for n in order},
            "circ": [{"m": m, "n": n, "i": i, "matrix": triples(
                p.circ(m, i, n), [(a, b) for a in order[m] for b in order[n]],
                order[m + n - 1])}
                for m in order for n in order if m + n - 1 <= p.N
                for i in range(1, m + 1)]}
    return spec


def _seeded_file_copy(p, seed, path):
    """p written as a file: spec with the basis of every arity in a
    seeded order, and loaded back."""
    from opdual.cli import load_operad_spec
    path.write_text(json.dumps(_file_spec(p, seed)))
    return load_operad_spec(str(path))


def _braid_breaking():
    """Arity 3 spanned by a, b with s_1 the swap and s_2 = diag(1, -1):
    involutions with s_1 s_2 s_1 != s_2 s_1 s_2."""
    terms = {1: k_complex(QQ, 0, "u"), 2: k_complex(QQ, 0, "m"),
             3: ChainComplex(QQ, {0: ["a", "b"]}, {})}
    adjacents = {
        (2, 1): ChainMap.identity(terms[2]),
        (3, 1): ChainMap.from_rule(terms[3], terms[3], lambda d, l: [
            ("b" if l == "a" else "a", 1)]),
        (3, 2): ChainMap.from_rule(terms[3], terms[3], lambda d, l: [
            (l, 1 if l == "a" else -1)])}
    return SymSeq(QQ, 3, terms, _prebuilt(adjacents))


@pytest.mark.parametrize("make, top", [
    (lambda tmp: builtin_operad("ass", F2, 5), 5),
    (lambda tmp: _seeded_file_copy(builtin_operad("ass", F2, 5), 4,
                                   tmp / "ass.json"), 5),
    (lambda tmp: bar(builtin_operad("com", QQ, 4), 4), 4),
    (lambda tmp: _braid_breaking(), 3),
], ids=["ass-f2", "file-ass-f2", "bar-com", "braid-breaking"])
def test_actions_are_the_chained_products_entry_by_entry(make, top, tmp_path):
    p = make(tmp_path)
    for n in range(2, top + 1):
        for images in itertools.permutations(range(1, n + 1)):
            perm = dict(zip(range(1, n + 1), images))
            f, ref = p.act(n, perm), _chained_act(p, n, perm)
            assert f.source is ref.source and f.target is ref.target
            for k in set(f.mats) | set(ref.mats):
                assert list(f.matrix(k).data.items()) == \
                    list(ref.matrix(k).data.items()), (n, images, k)


BRAID_SPEC = {
    "max_arity": 3,
    "terms": {"2": {"basis": [{"name": "m", "degree": 0}], "d": []},
              "3": {"basis": [{"name": "a", "degree": 0},
                              {"name": "b", "degree": 0}], "d": []}},
    "sigma": {"2": {"1": [[0, 0, 1]]},
              "3": {"1": [[1, 0, 1], [0, 1, 1]],
                    "2": [[0, 0, 1], [1, 1, -1]]}},
    "circ": [{"m": 2, "n": 2, "i": 1, "matrix": [[0, 0, 1]]},
             {"m": 2, "n": 2, "i": 2, "matrix": [[1, 0, 1]]}]}


def test_the_fail_list_of_a_braid_breaking_spec_is_pinned(tmp_path):
    # the actions of a spec whose s_1, s_2 break the braid relation depend
    # on the word read; the fail list is the one of the chained products
    from opdual.cli import CliError, load_operad_spec
    spec = tmp_path / "braid.json"
    spec.write_text(json.dumps(BRAID_SPEC))
    with pytest.raises(CliError) as err:
        load_operad_spec(str(spec))
    assert str(err.value).endswith(
        "fails axioms: braid s_1 arity 3, equivariance (2,1,2), "
        "equivariance (2,2,2)")


# -- the fail list against the check of every (sigma, tau) pair -----------

def _all_pairs_equivariance(p):
    """The equivariance names that every (sigma, tau) pair of every
    (m, n) gives, sigma (x) tau built as one tensor: the reference for
    check_operad_axioms, which reads the generators when they suffice."""
    live = [n for n in range(2, p.N + 1) if p.term(n).total_dim() > 0]
    fails = set()
    for m, n in itertools.product(live, repeat=2):
        if m + n - 1 not in live:
            continue
        circs = {j: p.circ(m, j, n) for j in range(1, m + 1)}
        src = circs[1].source
        for sigma, tau in itertools.product(_perms(m), _perms(n)):
            st = tensor_map_many(p.field, [p.act(m, sigma), p.act(n, tau)],
                                 source=src, target=src)
            for j in range(1, m + 1):
                rho = graft_perm(sigma, j, tau)
                if circs[j].then(p.act(m + n - 1, rho)) != \
                        st.then(circs[sigma[j]]):
                    fails.add(f"equivariance ({m},{j},{n})")
    return fails


def _mutant_specs():
    """Seeded one-entry mutants of ass and com up to arity 4 over Q and
    F3, as file: specs: one entry of one sigma or circ matrix negated
    or doubled (both negate over F3)."""
    for name, field in (("ass", QQ), ("ass", Field(3)), ("com", QQ),
                        ("com", Field(3))):
        base = builtin_operad(name, field, 4)
        for seed in range(20):
            rng = random.Random(seed)
            spec = _file_spec(base, seed)
            if rng.random() < 0.5:
                by_i = spec["sigma"][rng.choice(sorted(spec["sigma"]))]
                triples = by_i[rng.choice(sorted(by_i))]
            else:
                triples = rng.choice(spec["circ"])["matrix"]
            entry = rng.choice(triples)
            entry[2] *= rng.choice([-1, 2])
            yield f"{name}-{field.char}-{seed}", spec


def _loaded_mutants(tmp_path, monkeypatch):
    """BRAID_SPEC and _mutant_specs loaded as file: operads, with the
    axiom check of the loader turned off."""
    from opdual import cli
    monkeypatch.setattr(cli, "check_operad_axioms", lambda p: [])
    cases = []
    for name, spec in [("braid", BRAID_SPEC), *_mutant_specs()]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        cases.append((name, cli.load_operad_spec(str(path))))
    return cases


def test_the_fail_list_is_the_one_of_every_pair(tmp_path, monkeypatch):
    # the generators decide equivariance only while the relations hold,
    # and name only the j that some generator breaks: on every mutant
    # the list must be the one that reading every pair gives
    cases = [(f"half-blind-{keep}", _half_blind_ass(keep))
             for keep in (0, 1)]
    cases += _loaded_mutants(tmp_path, monkeypatch)
    broken = 0
    for name, p in cases:
        got = check_operad_axioms(p)
        ref = _all_pairs_equivariance(p)
        assert got == sorted(
            {f for f in got if not f.startswith("equivariance")} | ref), name
        broken += bool(ref)
    # most cases break equivariance, so the family tests the fallback
    assert broken >= len(cases) // 2


# -- associativity read on the slots (1, 1) and (1, 2) ---------------------

def _one(r):
    return {k: k for k in range(1, r + 1)}


def test_graft_perm_block_identities():
    # the three block identities that conjugate every associativity slot
    # to (1, 1) or (1, 2), for every m, n, q >= 1 with m + n + q - 2 <= 6
    counts = [0, 0, 0]
    for m, n, q in itertools.product(range(1, 7), repeat=3):
        if m + n + q - 2 > 6:
            continue
        for sigma in _perms(m):
            for j in range(1, n + 1):
                assert graft_perm(graft_perm(sigma, 1, _one(n)), j, _one(q)) \
                    == graft_perm(sigma, 1, _one(n + q - 1))
                counts[0] += 1
            if m >= 2 and sigma[1] < sigma[2]:
                assert graft_perm(graft_perm(sigma, 1, _one(n)), n + 1,
                                  _one(q)) == \
                    graft_perm(graft_perm(sigma, 2, _one(q)), 1, _one(n))
                counts[1] += 1
        for tau in _perms(n):
            for i in range(1, m + 1):
                assert graft_perm(graft_perm(_one(m), i, tau), i, _one(q)) == \
                    graft_perm(_one(m), i, graft_perm(tau, 1, _one(q)))
                counts[2] += 1
    assert counts == [1686, 657, 1686]


def _every_slot_associativity(p):
    """The associativity names that every slot of every basis triple
    gives, each composite applied to a label vector: the reference for
    check_operad_axioms, which reads the slots (1, 1) and (1, 2) when
    they suffice."""
    F = p.field

    def circ(m, i, n, xv, yv, d):
        return p.circ(m, i, n).apply(d, {(a, b): F.mul(c, e)
                                         for a, c in xv.items()
                                         for b, e in yv.items()})

    def basis(n):
        return [(l, d) for d, ls in p.term(n).basis.items() for l in ls]

    live = [n for n in range(2, p.N + 1) if p.term(n).total_dim() > 0]
    fails = set()
    for m, n, q in itertools.product(live, repeat=3):
        if m + n + q - 2 > p.N:
            continue
        for (x, dx), (y, dy), (z, dz) in itertools.product(
                basis(m), basis(n), basis(q)):
            X, Y, Z = {x: 1}, {y: 1}, {z: 1}
            d = dx + dy + dz
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    if circ(m + n - 1, i + j - 1, q,
                            circ(m, i, n, X, Y, dx + dy), Z, d) != \
                            circ(m, i, n + q - 1, X,
                                 circ(n, j, q, Y, Z, dy + dz), d):
                        fails.add(f"sequential associativity ({m},{i},{n},{j},{q})")
                for k in range(i + 1, m + 1):
                    lhs = circ(m + n - 1, k + n - 1, q,
                               circ(m, i, n, X, Y, dx + dy), Z, d)
                    rhs = circ(m + q - 1, i, n,
                               circ(m, k, q, X, Z, dx + dz), Y, d)
                    if dy * dz % 2:
                        rhs = {l: F.neg(c) for l, c in rhs.items()}
                    if lhs != rhs:
                        fails.add(f"parallel associativity ({m},{i},{k})")
    return fails


def _scaled(name, field, N, seed, per_slot):
    """The built-in name with circ(m, i, n) times a seeded nonzero scalar
    c(m, n), or c(m, i, n) when per_slot: equivariant and mostly not
    associative, or mostly not equivariant."""
    base = builtin_operad(name, field, N)
    rng = random.Random(seed)
    scalars = {(m, i, n): rng.randrange(1, field.char)
               for m in range(2, N) for n in range(2, N + 2 - m)
               for i in range(1, m + 1)}
    if not per_slot:
        scalars = {(m, i, n): scalars[m, 1, n] for m, i, n in scalars}

    def circ_builder(q, m, i, n):
        f, c = base.circ(m, i, n), scalars[m, i, n]
        return ChainMap.from_rule(
            q.pair_complex(m, n), q.term(m + n - 1),
            lambda d, ab: [(l, c * v) for l, v in f.image(ab).items()])

    return Operad(field, N, {n: base.term(n) for n in range(1, N + 1)},
                  base.sigma_adj, circ_builder,
                  name=f"{name}-{field.char}-{seed}-{int(per_slot)}")


def _unsigned_free(field, N):
    """The free operad on one binary generator of degree 1 with the sign
    of every action and composition dropped: equivariant and sequentially
    associative, it breaks the parallel identity, whose Koszul sign
    (-1)^{|y||z|} it lacks."""
    free = free_operad(symseq_from_degrees(field, N, {2: [1]}), N)
    terms = {n: free.term(n) for n in range(1, N + 1)}

    def unsigned(f, source, target):
        return ChainMap.from_rule(source, target,
                                  lambda d, l: [(l2, 1) for l2 in f.image(l)])

    return Operad(field, N, terms,
                  lambda n, i: unsigned(free.sigma_adj(n, i), terms[n],
                                        terms[n]),
                  lambda q, m, i, n: unsigned(free.circ(m, i, n),
                                              q.pair_complex(m, n),
                                              q.term(m + n - 1)),
                  name=f"unsigned-free-{field.char}-{N}")


def _scaled_family():
    for seed in range(60):
        name = ("com", "ass")[seed % 2]
        field = Field((3, 5, 7)[seed // 2 % 3])
        yield _scaled(name, field, 5 if name == "com" or seed % 4 == 1 else 4,
                      seed, seed >= 44)


def test_the_fail_list_is_the_one_of_every_slot(tmp_path, monkeypatch):
    # the slots (1, 1) and (1, 2) decide associativity only once the
    # relations, unit and equivariance hold, and name only themselves:
    # on every case the list must be the one that reading every slot gives
    cases = [(p.name, p) for p in _scaled_family()]
    cases += [(p.name, p) for p in (_unsigned_free(Field(c), N)
                                     for c in (3, 5, 7) for N in (4, 5))]
    cases += _loaded_mutants(tmp_path, monkeypatch)
    reduced_then_full = 0
    for name, p in cases:
        got = check_operad_axioms(p)
        ref = _every_slot_associativity(p)
        assert got == sorted(
            {f for f in got if "associativity" not in f} | ref), name
        reduced_then_full += bool(ref) and all(
            "associativity" in f for f in got)
    # a quarter of the cases pass every earlier identity and break
    # associativity, so the reduced read runs and falls back
    assert reduced_then_full >= len(cases) // 4


def test_ass_at_arity_6_reads_two_slots_per_triple(monkeypatch):
    # 584 basis triples, each read at (1, 1) and (1, 2): 1,168 identities,
    # where every slot gives 5,248; each identity applies two maps
    calls = []

    def counted(f, k, vec, orig=ChainMap.apply):
        calls.append(1)
        return orig(f, k, vec)

    monkeypatch.setattr(ChainMap, "apply", counted)
    assert check_operad_axioms(builtin_operad("ass", QQ, 6)) == []
    assert len(calls) == 2 * 1168


def test_the_axiom_check_never_asks_for_a_unit_map(monkeypatch, tmp_path):
    # SymSeq builds every circ with an arity-1 side as the unit law, so
    # the check reads no identity with a unit map in it
    cases = [builtin_operad("ass", QQ, 5),
             _seeded_file_copy(builtin_operad("ass", F2, 5), 4,
                               tmp_path / "ass.json")]
    asked = []

    def recording(p, m, i, n, orig=Operad.circ):
        asked.append((m, i, n))
        return orig(p, m, i, n)

    monkeypatch.setattr(Operad, "circ", recording)
    for p in cases:
        asked.clear()
        assert check_operad_axioms(p) == []
        assert asked and all(m > 1 and n > 1 for m, _, n in asked), p.name


# -- the one-rule tree-tensor maps against the two-step route --------------

def _relabel_two_step(a, t, sigma):
    """Relabel each factor of a.tree_complex(t), then permute the
    factors into the vertex order of sigma_* t."""
    t2 = t.relabel(sigma)
    moves = _vertex_relabel(t, t2, sigma)
    src = a.tree_complex(t)
    step1 = tensor_map_many(
        a.field, [a.act(len(loc), loc) for loc, _ in moves], source=src,
        target=src)
    step2 = permute_factors(a.field, [a.term(k) for k in _vertex_arities(t)],
                            [pos for _, pos in moves], src, a.tree_complex(t2))
    return step1.then(step2)


def _contract_two_step(p, t, e):
    """Permute the factors of p.tree_complex(t) so that the two meeting
    at e are adjacent, then merge them."""
    t2 = t.contract(e)
    a, j, b, pi, order, k = _contraction(t, e, t2)
    pair = p.circ(a, j, b).then(p.act(a + b - 1, pi))
    vs = t.vertices()
    ordered = tensor_many(p.field, [p.term(t.arity_of(w)) for w in order])
    s1 = permute_factors(p.field, [p.term(t.arity_of(w)) for w in vs],
                         [order.index(w) for w in vs], p.tree_complex(t),
                         ordered)

    def merge(d, tup):
        img = pair.apply(sum(p.term(t.arity_of(w)).label_degree[l]
                             for w, l in zip(order[k:k + 2], tup[k:k + 2])),
                         {tup[k:k + 2]: 1})
        return [(tup[:k] + (l,) + tup[k + 2:], c) for l, c in img.items()]

    return s1.then(ChainMap.from_rule(ordered, p.tree_complex(t2), merge))


def _cover_two_step(q, t, u, e):
    """Split the merged factor of q.tree_complex(t), then permute the
    factors into the vertex order of u."""
    a, j, b, pi, order, k = _contraction(u, e, t)
    pair = q.act(a + b - 1, _inverse_perm(pi)).then(q.cocirc(a, j, b))
    factors = [q.term(u.arity_of(w)) for w in order]
    mid = tensor_many(q.field, factors)
    tm = q.term(a + b - 1)

    def split(d, tup):
        img = pair.apply(tm.label_degree[tup[k]], {tup[k]: 1})
        return [(tup[:k] + pl + tup[k + 1:], c) for pl, c in img.items()]

    vs = u.vertices()
    return ChainMap.from_rule(q.tree_complex(t), mid, split).then(
        permute_factors(q.field, factors, [vs.index(w) for w in order], mid,
                        q.tree_complex(u)))


def _adjacent(n):
    return [adjacent_transposition(n, i) for i in range(1, n)]


@pytest.mark.parametrize("p", [
    builtin_operad("com", QQ, 4), builtin_operad("ass", F2, 4),
    free_operad(symseq_from_degrees(QQ, 4, {2: [0, 1]}), 4),
    trivial_operad(symseq_from_degrees(QQ, 4, {2: [0, 1], 3: [1]})),
], ids=["com", "ass_f2", "free01", "trivial"])
def test_one_rule_maps_match_the_two_step_route(p):
    q = dualize(p)
    eq = extend_cooperad(q)
    for n in range(2, 5):
        for t in enumerate_trees(n):
            for sigma in _adjacent(n):
                assert p.tree_relabel(t, sigma) == _relabel_two_step(
                    p, t, sigma), (t, sigma)
            for e in t.edges():
                assert p.contract_map(t, e) == _contract_two_step(p, t, e)
            for u, e in t.expansions():
                assert eq.cover_map(t, u, e) == _cover_two_step(q, t, u, e)


# -- one relabel map per vertex move -----------------------------------------

RELABEL_CASES = [
    pytest.param(lambda: builtin_operad("ass", F2, 4), id="ass_f2"),
    pytest.param(lambda: trivial_operad(
        symseq_from_degrees(QQ, 4, {2: [0, 1]})), id="trivial01"),
    pytest.param(lambda: dualize(bar(builtin_operad("com", QQ, 4), 4)),
                 id="dual_bar_com"),
]


@pytest.mark.parametrize("make", RELABEL_CASES)
def test_shared_tree_relabel_matches_a_fresh_build(make):
    # the map every (t, sigma) of one vertex move shares equals, matrix by
    # matrix, the map built afresh from the rule of (t, sigma) itself
    p = make()
    shared, pairs = {}, 0
    for n in range(2, 5):
        for t in enumerate_trees(n):
            for sigma in _adjacent(n):
                f = p.tree_relabel(t, sigma)
                src, tgt = p.tree_complex(t), p.tree_complex(t.relabel(sigma))
                ref = ChainMap.from_rule(src, tgt,
                                         p._relabel_rule(t, sigma))
                assert f.source is src and f.target is tgt
                assert set(f.mats) == set(ref.mats), (t, sigma)
                for k, m in ref.mats.items():
                    assert list(f.mats[k].data.items()) == \
                        list(m.data.items()), (t, sigma, k)
                shared.setdefault(operads._vertex_move(t, sigma),
                                  set()).add(id(f))
                pairs += 1
    assert all(len(maps) == 1 for maps in shared.values())
    assert len(shared) < pairs


@pytest.mark.parametrize("make", RELABEL_CASES[:2])
def test_actions_build_one_relabel_map_per_vertex_move(make, monkeypatch):
    # bar and W read tree_relabel for every action; the maps it builds,
    # counted as the from_rule calls made inside it, are one per distinct
    # vertex move of the (t, sigma) it is asked for; the actions of p are
    # built first, so every from_rule inside tree_relabel is a relabel map
    p = make()
    for n in range(2, 5):
        for i in range(1, n):
            p.sigma_adj(n, i)
    moves, builds, depth = [], [], [0]

    def from_rule(cls, *args, orig=ChainMap.from_rule.__func__, **kwargs):
        if depth[0]:
            builds.append(args[:2])
        return orig(cls, *args, **kwargs)

    def tree_relabel(self, t, sigma, orig=SymSeq.tree_relabel):
        moves.append(operads._vertex_move(t, sigma))
        depth[0] += 1
        try:
            return orig(self, t, sigma)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ChainMap, "from_rule", classmethod(from_rule))
    monkeypatch.setattr(SymSeq, "tree_relabel", tree_relabel)
    for c in (bar(p, 4), w_construction(p, 4)):
        for n in range(2, 5):
            for i in range(1, n):
                c.sigma_adj(n, i)
    assert builds and len(builds) == len(set(moves))
    assert len(moves) > len(builds)


def _rule_image(field, rule, d, x):
    out = {}
    for l, c in rule(d, x):
        out[l] = field.add(out.get(l, field.zero), c)
    return {l: c for l, c in out.items() if c != field.zero}


@pytest.mark.parametrize("p", [
    builtin_operad("com", QQ, 4), builtin_operad("ass", F2, 4),
    free_operad(symseq_from_degrees(QQ, 4, {2: [0, 1]}), 4),
    trivial_operad(symseq_from_degrees(QQ, 4, {2: [0, 1], 3: [1]})),
], ids=["com", "ass_f2", "free01", "trivial"])
def test_rules_match_the_two_step_route_label_by_label(p, monkeypatch):
    F = p.field
    merges, splits, rules = {}, [], []

    def merge_rule(degrees, slots, k, pair, orig=operads._merge_rule):
        merges[key].append(weakref.ref(pair))
        return orig(degrees, slots, k, pair)

    def split(self, *key, orig=ExtendedCooperad._split):
        f = orig(self, *key)
        splits.append((key, weakref.ref(f)))
        return f

    monkeypatch.setattr(operads, "_merge_rule", merge_rule)
    monkeypatch.setattr(ExtendedCooperad, "_split", split)
    q = dualize(p)
    eq = extend_cooperad(q)
    for n in range(2, 5):
        for t in enumerate_trees(n):
            for e in t.edges():
                a, j, b, pi, _, _ = _contraction(t, e, t.contract(e))
                key = (a, j, b, tuple(pi.values()))
                merges.setdefault(key, [])
                ref, rule = _contract_two_step(p, t, e), p.contract_rule(t, e)
                rules.append(rule)
                for x, d in p.tree_complex(t).label_degree.items():
                    assert _rule_image(F, rule, d, x) == ref.apply(
                        d, {x: F.one}), (t, e, x)
            for u, e in t.expansions():
                ref, rule = _cover_two_step(q, t, u, e), eq.cover_rule(t, u, e)
                rules.append(rule)
                for x, d in q.tree_complex(t).label_degree.items():
                    assert _rule_image(F, rule, d, x) == ref.apply(
                        d, {x: F.one}), (t, u, x)
    # while the rules live, as in the window of a build, edges with one key
    # (a, j, b, pi) share one merge map and each split map is built once;
    # the maps go with the last rule that reads them
    assert any(len(got) > 1 for got in merges.values())
    assert all(r() is got[0]() is not None
               for got in merges.values() for r in got)
    keys = [k for k, _ in splits]
    assert keys and len(keys) == len(set(keys))
    del rule
    rules.clear()
    assert all(r() is None for got in merges.values() for r in got)
    assert all(r() is None for _, r in splits)


def test_circ_sides_share_one_pair_complex():
    p = builtin_operad("ass", F2, 5)
    assert p.circ(3, 2, 3).source is p.circ(3, 1, 3).source
    assert p.circ(2, 1, 3).source is p.pair_complex(2, 3)
    q = dualize(p)
    assert q.cocirc(3, 2, 3).target is q.cocirc(3, 3, 3).target


def test_trees_with_equal_vertex_arities_share_one_tree_complex():
    p = builtin_operad("ass", F2, 5)
    t = canonical_form([[1, 2], 3, [4, 5]])
    u = next(v for v in enumerate_trees(5)
             if v != t and _vertex_arities(v) == _vertex_arities(t))
    assert p.tree_complex(t) is p.tree_complex(u)
    for m, n in ((2, 3), (3, 2), (2, 2)):
        for v in enumerate_trees(m + n - 1):
            if _vertex_arities(v) == (m, n):
                assert p.tree_complex(v) is p.pair_complex(m, n), v


def test_one_tensor_per_arity_sequence(monkeypatch, capsys):
    # com up to arity 6 has 32 vertex-arity sequences (2^(n-2) of arity
    # n >= 2, and the empty one), one tensor each
    real, built = operads.tensor_many, []

    def counted(field, factors):
        built.append(len(factors))
        return real(field, factors)

    monkeypatch.setattr(operads, "tensor_many", counted)
    assert cli.main(["bar", "--operad", "com", "--max-arity", "6",
                     "--homology"]) == 0
    capsys.readouterr()
    assert len(built) == 32


def test_constant_free_precooperad_relabels_by_the_two_step_route():
    a = symseq_from_degrees(QQ, 4, {2: [0, 1], 3: [1]})
    f = free_precooperad(a, 4, "constant")
    for n in range(2, 5):
        for t in enumerate_trees(n):
            for sigma in _adjacent(n):
                ref = {}

                def rule(d, lab):
                    u, l = lab
                    if u not in ref:
                        ref[u] = _relabel_two_step(a, u, sigma)
                    u2 = u.relabel(sigma)
                    return [((u2, l2), c)
                            for l2, c in ref[u].apply(d, {l: 1}).items()]

                assert f.relabel_map(t, sigma) == ChainMap.from_rule(
                    f.term(t), f.term(t.relabel(sigma)), rule), (t, sigma)


# -- composites along a tree, against the all-at-once construction ---------

def _ref_local_subtree(W, c):
    """The part of W inside the cluster c, its leaves renumbered 1..|c|."""
    lam = {l: k for k, l in enumerate(sorted(c), start=1)}
    return Tree(len(c), [frozenset(lam[l] for l in w)
                         for w in W.clusters if w <= c])


def _ref_compose_fragments(q, T, U):
    """q.compose_fragments(T, U) built all at once: regroup the factors
    into the root fragment and one block per subtree of U, compose each
    block by this function itself, graft the composites into the root
    fragment left to right and relabel once at the end."""
    field = q.field
    if U.n == 1:
        ul = q.term(T).basis[0][0]
        return ChainMap.from_rule(tensor_many(field, []), q.term(T),
                                  lambda d, l: [(ul, 1)])
    frs = fragments(T, U)
    uvs = U.vertices()
    factors = [q.term(frs[v].tree) for v in uvs]
    src = tensor_many(field, factors)
    if U.num_vertices == 1:
        return ChainMap.from_rule(src, q.term(T), lambda d, l: [(l[0], 1)])
    r = U.root_cluster
    rch = U.children(r)
    cls = [c for c in rch if not isinstance(c, int)]
    groups = [[w for w in uvs if w <= c] for c in cls]
    subs = []
    for c in cls:
        T_c = _ref_local_subtree(T, c)
        subs.append((T_c, _ref_compose_fragments(
            q, T_c, _ref_local_subtree(U, c))))
    grouped = [r] + [w for g in groups for w in g]
    perm = [grouped.index(w) for w in uvs]
    fdeg = [c.label_degree for c in factors]
    nested = tensor_many(field, [q.term(frs[r].tree)] +
                         [cf.source for _, cf in subs])

    def regroup_rule(d, tup):
        flat, sgn = _place(tup,
                           [fdeg[k][l] for k, l in enumerate(tup)], perm)
        return [((flat[0],) + _chunks(flat[1:], map(len, groups)), sgn)]

    f = ChainMap.from_rule(src, nested, regroup_rule).then(tensor_map_many(
        field, [ChainMap.identity(q.term(frs[r].tree))] +
        [cf for _, cf in subs], source=nested))
    W = frs[r].tree
    offset = 0
    for k, c in enumerate(cls):
        j = rch.index(c) + 1 + offset
        T_c = subs[k][0]
        m = q.m_map(W, j, T_c)
        W = graft(W, j, T_c)
        tail = [q.term(x) for x, _ in subs[k + 1:]]
        nxt = (tensor_many(field, [q.term(W)] + tail) if tail
               else q.term(W))

        def step_rule(d, tup, m=m, tail=bool(tail)):
            img = m.apply(m.source.label_degree[(tup[0], tup[1])],
                          {(tup[0], tup[1]): 1})
            return [((l2,) + tuple(tup[2:]) if tail else l2, cc)
                    for l2, cc in img.items()]

        f = f.then(ChainMap.from_rule(f.target, nxt, step_rule))
        offset += len(c) - 1
    leaves = []
    for c in rch:
        leaves.extend(sorted(c) if not isinstance(c, int) else [c])
    lam = {k + 1: l for k, l in enumerate(leaves)}
    assert W.relabel(lam) == T
    if W != T:
        f = f.then(q.relabel_map(W, lam))
    return f


def _same_map(f, g):
    return (f.source == g.source and f.target == g.target
            and f.degree == g.degree and f == g)


@pytest.mark.parametrize("make", [
    lambda: extend_cooperad(bar(builtin_operad("com", QQ, 4), 4)),
    lambda: extend_cooperad(bar(builtin_operad("ass", F2, 4), 4)),
    lambda: dual_precooperad(free_operad(
        symseq_from_degrees(QQ, 4, {2: [0, 1]}), 4)),
    lambda: extend_cooperad(bar(trivial_operad(
        symseq_from_degrees(QQ, 4, {2: [0, 1], 3: [1]})), 4)),
    lambda: free_precooperad(
        symseq_from_degrees(QQ, 4, {2: [0], 3: [1]}), 4, "constant"),
    lambda: bbar(builtin_operad("com", QQ, 4), 4),
    lambda: bbar(free_operad(symseq_from_degrees(QQ, 4, {2: [1]}), 4), 4),
    lambda: co_w(extend_cooperad(bar(builtin_operad("com", QQ, 4), 4)), 4),
], ids=["extend_bar_com", "extend_bar_ass_f2", "dual_free01",
        "extend_bar_trivial", "free_constant", "bbar_com", "bbar_free1",
        "co_w_com"])
def test_compose_fragments_matches_the_all_at_once_reference(make):
    q = make()
    for n in range(1, 5):
        trees = enumerate_trees(n)
        for T, U in itertools.product(trees, trees):
            if U.leq(T):
                assert _same_map(q.compose_fragments(T, U),
                                 _ref_compose_fragments(q, T, U)), (T, U)


def test_compose_along_tree_matches_the_edge_loop():
    p = builtin_operad("ass", F2, 4)
    for n in range(1, 5):
        for t in enumerate_trees(n):
            cur, g = t, ChainMap.identity(p.tree_complex(t))
            while cur.edges():
                e = cur.edges()[0]
                g = g.then(p.contract_map(cur, e))
                cur = cur.contract(e)
            if t.n > 1:
                g = g.then(ChainMap.from_rule(
                    p.tree_complex(cur), p.term(n), lambda d, l: [(l[0], 1)]))
                assert _same_map(p.compose_along_tree(t), g), t
    # the 1-leaf tree composes its empty label to the unit
    f = p.compose_along_tree(corolla(1))
    assert f.source.basis == {0: ((),)} and f.target is p.term(1)
    assert f.apply(0, {(): 1}) == {p.unit_label: 1}


def test_compose_fragments_merges_each_edge_into_its_parent():
    # from arity 5 on, the parent of the merged edge can differ from the
    # root in arity as well, here the vertex {1, 2, 3, 4} of arity 3
    U = canonical_form([[[1, 2], 3, 4], 5])
    for q in (extend_cooperad(bar(builtin_operad("com", QQ, 5), 5)),
              free_precooperad(symseq_from_degrees(QQ, 5, {2: [0], 3: [1]}),
                               5, "constant")):
        for T in enumerate_trees(5):
            if U.leq(T):
                assert _same_map(q.compose_fragments(T, U),
                                 _ref_compose_fragments(q, T, U)), (T, U)


def _image_is_apply(f):
    one = f.source.field.one
    for k, labels in f.source.basis.items():
        for x in labels:
            img = f.image(x)
            assert list(img.items()) == list(f.apply(k, {x: one}).items())
            assert [type(c) for c in img.values()] == \
                [type(c) for c in f.apply(k, {x: one}).values()]


@pytest.mark.parametrize("p", [
    builtin_operad("ass", F2, 4), builtin_operad("com", QQ, 4),
    free_operad(symseq_from_degrees(QQ, 4, {2: [0, 1]}), 4),
], ids=["ass_f2", "com", "free01"])
def test_image_reads_what_apply_gives_one_label(p):
    # every label of every action, composition, merge map and split map
    eq = extend_cooperad(dualize(p))
    maps = []
    for n in range(2, 5):
        maps += [p.act(n, dict(zip(range(1, n + 1), perm)))
                 for perm in itertools.permutations(range(1, n + 1))]
        for m in range(2, n):
            maps += [p.circ(m, i, n - m + 1) for i in range(1, m + 1)]
        for t in enumerate_trees(n):
            for e in t.edges():
                a, j, b, pi, _, _ = _contraction(t, e, t.contract(e))
                key = (a, j, b, tuple(pi.values()))
                maps += [p._merge(*key), eq._split(*key)]
    for f in maps:
        _image_is_apply(f)
    zero = ChainMap.zero(p.term(2), p.term(2))
    assert all(zero.image(x) == {} for x in p.term(2).label_degree)

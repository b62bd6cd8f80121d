import copy
import itertools
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from opdual.trees import (
    Tree, _interned, corolla, canonical_form, enumerate_trees, graft,
    split_at_block, grafted_edge, fragments, adjacent_transposition,
    perm_to_adjacents,
)

ROOT = Path(__file__).resolve().parents[1]


def compose_perms(sigma: dict, tau: dict) -> dict:
    """(sigma o tau)(x) = sigma(tau(x))."""
    return {x: sigma[tau[x]] for x in tau}


def identity_perm(n: int) -> dict:
    return {i: i for i in range(1, n + 1)}


def total_partition_counts(nmax):
    """Independent oracle for the number of labeled-leaf tree shapes.

    The exponential generating function A(x) of "total partitions"
    satisfies A'(x) * (1 + x - 2*A(x)) = 1, A(0) = 0.  Solving the
    coefficient recurrence gives the counts without ever touching the
    tree code.
    """
    # a[k] = k! [x^k] A
    a = [Fraction(0)] * (nmax + 1)
    a[1] = Fraction(1)
    for n in range(1, nmax):
        # coefficient of x^n in A'(1 + x - 2A) = 1:
        # c_{n+1}(n+1) + c_n * n - 2 * sum_{j} c_{j+1}(j+1) c_{n-j} = 0
        # where c_k = a[k]/k! are the ordinary coefficients
        c = [a[k] / Fraction(_fact(k)) for k in range(n + 1)] + [Fraction(0)]
        s = sum((j + 1) * c[j + 1] * c[n - j] for j in range(n))
        cn1 = (2 * s - n * c[n]) / (n + 1)
        a.append(0)
        a[n + 1] = cn1 * _fact(n + 1)
    return [int(a[k]) for k in range(nmax + 1)]


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def test_oracle_series():
    # the oracle itself reproduces the classical series
    assert total_partition_counts(6)[1:] == [1, 1, 4, 26, 236, 2752]


def test_enumerate_counts_match_oracle():
    oracle = total_partition_counts(5)
    for n in range(1, 6):
        assert len(enumerate_trees(n)) == oracle[n]


def test_enumerate_deterministic_and_canonical():
    ts = enumerate_trees(4)
    assert len(set(ts)) == 26
    assert corolla(4) in ts
    assert list(ts) == sorted(ts, key=Tree.sort_key)
    # one representative per iso class: relabeling stays inside the list
    for t in enumerate_trees(3):
        for perm in itertools.permutations(range(1, 4)):
            assert t.relabel(dict(zip(range(1, 4), perm))) in enumerate_trees(3)


def test_enumerate_rejects_zero():
    with pytest.raises(ValueError):
        enumerate_trees(0)


def test_canonical_form():
    t1 = canonical_form([3, 1, 2])
    assert t1 == corolla(3)
    # two planar presentations of the same tree
    a = canonical_form([[1, 2], 3])
    b = canonical_form([3, [2, 1]])
    assert a == b
    assert canonical_form(a) == a
    with pytest.raises(ValueError):
        canonical_form([[1], 2, 3])
    with pytest.raises(ValueError):
        canonical_form([[1, 2], 2])


def test_encoding_roundtrip():
    t = canonical_form([1, [2, 3], 4])
    assert t.encode() == "(1 (2 3) 4)"
    # the encoding tells every tree of T(4) apart
    trees = enumerate_trees(4)
    assert len({tree.encode() for tree in trees}) == len(trees)


def test_encoding_is_kept_and_never_stale(monkeypatch):
    for t in (t for n in range(1, 6) for t in enumerate_trees(n)):
        fresh = Tree(t.n, t.clusters)
        assert t.encode() == fresh.encode() and repr(t) == repr(fresh)
    # contract and relabel build new trees, which encode themselves
    for t in enumerate_trees(4):
        t.encode()
        for e in t.edges():
            u = t.contract(e)
            assert u.encode() == Tree(u.n, u.clusters).encode() != t.encode()
        for i in range(1, 4):
            u = t.relabel(adjacent_transposition(4, i))
            assert u.encode() == Tree(u.n, u.clusters).encode()
    calls = []
    children = Tree.children

    def counted(self, v):
        calls.append(v)
        return children(self, v)

    monkeypatch.setattr(Tree, "children", counted)
    # trees are interned, so this needs a tree that no other test builds
    # (test_planar enumerates every tree of arity 7)
    t = canonical_form([[1, 2], [3, [4, 5]], [6, [7, 8]]])
    first = t.encode()
    assert calls
    calls.clear()
    assert t.encode() == first and not calls


def test_equal_clusters_give_one_instance():
    a, b, ab = frozenset({1, 2}), frozenset({3, 4}), frozenset({1, 2, 3, 4})
    t = Tree(4, [a, b, ab])
    assert Tree(4, [ab, b, a]) is t
    assert Tree(4, [[2, 1], (4, 3), {1, 2, 3, 4}]) is t
    assert Tree(4, {a, b, ab}) is t
    assert Tree(4, frozenset({a, b, ab})) is t
    assert canonical_form([[2, 1], [4, 3]]) is t
    assert Tree(4, [a, ab]) is not t


def test_tree_operations_return_the_enumerated_instance():
    held = {n: set(map(id, enumerate_trees(n))) for n in range(1, 6)}

    def enumerated(t):
        return id(t) in held[t.n]

    for t in enumerate_trees(4):
        assert enumerated(canonical_form(t))
        for e in t.edges():
            assert enumerated(t.contract(e))
        for i in range(1, 4):
            assert enumerated(t.relabel(adjacent_transposition(4, i)))
        for u, _ in t.expansions():
            assert enumerated(u)
        for i in t.leaves:
            v = graft(t, i, corolla(2))
            assert enumerated(v)
            back = split_at_block(v, i, 2)
            assert back[0] is t and enumerated(back[1])
    assert enumerated(canonical_form([[3, 1], [2, 4]]))


def test_invalid_clusters_raise_every_time_and_are_not_kept():
    before = _interned.cache_info().currsize
    for bad in ([[1, 2], [2, 3], [1, 2, 3]],    # not laminar
                [[1, 2]],                        # no root cluster
                [[1], [1, 2, 3]]):              # unary vertex
        for _ in range(2):
            with pytest.raises(ValueError):
                Tree(3, bad)
    assert _interned.cache_info().currsize == before


def test_children_and_vertices_are_fresh_lists():
    t = canonical_form([[1, 2], [3, [4, 5]]])
    verts, root = t.vertices(), t.root_cluster
    kids = t.children(root)
    verts.clear()
    kids.append(99)
    assert t.vertices() and t.vertices() is not t.vertices()
    assert 99 not in t.children(root)
    assert t.arity_of(root) == 2


def test_copies_and_pickles_return_the_interned_tree():
    t = canonical_form([[1, 2], [3, [4, 5]]])
    assert copy.copy(t) is t
    assert copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t
    assert copy.deepcopy({t: [t]}) == {t: [t]}


def test_stdout_does_not_depend_on_the_hash_seed():
    # trees hash by identity, so a set of trees would iterate in an order
    # that changes between processes; the output must not
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(ROOT / "src"),
                                     os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-m", "opdual.cli", "check",
                              "theta", "--operad", "com", "--max-arity", "4"],
                             capture_output=True, cwd=ROOT, env=env,
                             timeout=120)
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout)
    assert outs[0] and outs[0] == outs[1]


def test_relabel_action():
    t = canonical_form([[1, 2], 3])
    s23 = adjacent_transposition(3, 2)
    assert t.relabel(s23) == canonical_form([[1, 3], 2])
    assert corolla(3).relabel(s23) == corolla(3)
    assert t.relabel(identity_perm(3)) == t
    # action property on all of T(4)
    perms = [dict(zip(range(1, 5), p)) for p in itertools.permutations(range(1, 5))]
    import random
    rng = random.Random(7)
    for t in enumerate_trees(4):
        for _ in range(3):
            s, r = rng.choice(perms), rng.choice(perms)
            assert t.relabel(s).relabel(r) == t.relabel(compose_perms(r, s))


def test_coxeter_relations_on_trees():
    for n in range(2, 6):
        gens = [adjacent_transposition(n, i) for i in range(1, n)]
        for t in enumerate_trees(n):
            for i, s in enumerate(gens):
                assert t.relabel(s).relabel(s) == t
                if i + 1 < len(gens):
                    u = gens[i + 1]
                    lhs = t.relabel(s).relabel(u).relabel(s)
                    rhs = t.relabel(u).relabel(s).relabel(u)
                    assert lhs == rhs


def test_graft_examples():
    assert graft(corolla(2), 2, corolla(2)) == canonical_form([1, [2, 3]])
    assert graft(corolla(2), 1, corolla(3)) == canonical_form([[1, 2, 3], 4])
    t = canonical_form([[1, 2], 3])
    assert graft(t, 2, Tree(1, [])) == t
    v = graft(corolla(2), 2, corolla(2))
    assert v.num_vertices == 2


def test_graft_split_roundtrip():
    for t in enumerate_trees(3):
        for u in enumerate_trees(2):
            for i in t.leaves:
                v = graft(t, i, u)
                assert v in enumerate_trees(t.n + u.n - 1)
                back = split_at_block(v, i, u.n)
                assert back == (t, u)
                assert grafted_edge(t, i, u) in v.clusters


def test_graft_contract_compatibility():
    # contracting the grafted edge of graft(t,i,u) merges u's root into t
    for t in enumerate_trees(2) + enumerate_trees(3):
        for u in enumerate_trees(2):
            for i in t.leaves:
                v = graft(t, i, u)
                e = grafted_edge(t, i, u)
                w = v.contract(e)
                assert w.num_vertices == v.num_vertices - 1
                assert w.leq(v)


def test_contract_and_expansions():
    b = canonical_form([[1, 2], 3])
    e = frozenset({1, 2})
    assert b.contract(e) == corolla(3)
    with pytest.raises(ValueError):
        corolla(3).contract(frozenset({1, 2, 3}))
    assert corolla(2).expansions() == []
    exp3 = corolla(3).expansions()
    assert len(exp3) == 3
    assert {t for t, _ in exp3} == set(enumerate_trees(3)) - {corolla(3)}
    exp4 = corolla(4).expansions()
    assert len(exp4) == 10
    two_leaf = sum(1 for t, e in exp4 if len(e) == 2)
    three_leaf = sum(1 for t, e in exp4 if len(e) == 3)
    assert (two_leaf, three_leaf) == (6, 4)
    for t, e in exp4:
        assert t.contract(e) == corolla(4)
        assert t.num_vertices == 2


def test_caterpillar_contraction():
    cat = canonical_form([[[1, 2], 3], 4])
    lower = frozenset({1, 2})
    assert cat.contract(lower) == canonical_form([[1, 2, 3], 4])


def test_preorder_vs_contraction_paths():
    # t <= u iff some contraction sequence takes u to t
    for n in (3, 4):
        trees = enumerate_trees(n)
        reach = {u: {u} for u in trees}
        frontier = {u: {u} for u in trees}
        changed = True
        while changed:
            changed = False
            for u in trees:
                new = set()
                for t in frontier[u]:
                    for e in t.edges():
                        c = t.contract(e)
                        if c not in reach[u]:
                            new.add(c)
                for c in new:
                    reach[u].add(c)
                frontier[u] = new
                if new:
                    changed = True
        for t in trees:
            for u in trees:
                assert t.leq(u) == (t in reach[u])
                assert (fragments(u, t) is not None) == t.leq(u)


def test_fragments():
    t = canonical_form([[[1, 2], 3], 4])
    # fragments over itself: corollas
    fr = fragments(t, t)
    for v, f in fr.items():
        assert f.tree.is_corolla()
        assert f.tree.n == t.arity_of(v)
    # fragments over the corolla: the whole tree
    fr = fragments(t, corolla(4))
    assert list(fr) == [frozenset({1, 2, 3, 4})]
    assert fr[frozenset({1, 2, 3, 4})].tree == t
    # caterpillar vs 2-vertex contraction
    u = canonical_form([[1, 2, 3], 4])
    fr = fragments(t, u)
    root_frag = fr[frozenset({1, 2, 3, 4})]
    sub_frag = fr[frozenset({1, 2, 3})]
    assert root_frag.tree == corolla(2)
    assert sub_frag.tree == canonical_form([[1, 2], 3])
    # vertex count is preserved by fragmentation
    for n in (3, 4):
        for t2 in enumerate_trees(n):
            for u2 in enumerate_trees(n):
                fr2 = fragments(t2, u2)
                if fr2 is not None:
                    assert sum(f.tree.num_vertices for f in fr2.values()) == t2.num_vertices
    with pytest.raises(ValueError):
        fragments(corolla(3), corolla(4))


def test_perm_to_adjacents():
    for n in range(1, 6):
        for p in itertools.permutations(range(1, n + 1)):
            perm = dict(zip(range(1, n + 1), p))
            word = perm_to_adjacents(perm)
            built = identity_perm(n)
            for j in word:
                built = compose_perms(adjacent_transposition(n, j), built)
            assert built == perm


def test_bubble_sort_words_are_prefix_closed():
    # SymSeq._act builds each action on the action of s_j o perm, j the
    # last letter of the word of perm: that word must be the prefix
    for n in range(1, 8):
        for p in itertools.permutations(range(1, n + 1)):
            word = perm_to_adjacents(dict(zip(range(1, n + 1), p)))
            if word:
                s = adjacent_transposition(n, word[-1])
                prefix = dict(zip(range(1, n + 1), (s[x] for x in p)))
                assert perm_to_adjacents(prefix) == word[:-1], p


def test_arity_six_census_is_fast():
    import time
    t0 = time.time()
    assert len(enumerate_trees(6)) == total_partition_counts(6)[6] == 2752
    assert time.time() - t0 < 10.0

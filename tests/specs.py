"""Operads for the tests that take the planar path of `bar` and
`koszul`, as library objects and as `file:` specs."""
import random

from opdual.chain import ChainComplex, ChainMap
from opdual.fields import Field
from opdual.operads import (
    SymSeq, _adjacent_family, builtin_operad, free_operad,
)


def _value(v):
    return v if isinstance(v, int) else str(v)


def spec_of(p, top, max_arity=None, seed=None, sign=None):
    """The `file:` spec of the arities up to top of the operad p, declaring
    max_arity (top by default), with the basis of every arity shuffled by
    seed (none by default) and each circ entry of the pair (a, b) of
    circ(m, i, n) scaled by sign(m, i, n, a, b) (1 by default)."""
    order, idx, terms = {}, {}, {}
    for n in range(2, top + 1):
        c = p.term(n)
        if not c.total_dim():
            continue
        labs = [l for d in c.degrees() for l in c.basis[d]]
        if seed is not None:
            random.Random(seed + n).shuffle(labs)
        order[n] = labs
        idx[n] = {l: k for k, l in enumerate(labs)}
        terms[str(n)] = {
            "basis": [{"name": f"x{n}_{k}", "degree": c.label_degree[l]}
                      for k, l in enumerate(labs)],
            "d": [[idx[n][y], idx[n][l], _value(v)] for l in labs
                  for y, v in c.boundary_of(l).items()]}
    sigma = {str(n): {str(i): [[idx[n][y], idx[n][l], _value(v)]
                               for l in order[n]
                               for y, v in p.sigma_adj(n, i).image(l).items()]
                      for i in range(1, n)} for n in order}
    circ = []
    for m in order:
        for n in order:
            if m + n - 1 not in order:
                continue
            for i in range(1, m + 1):
                f = p.circ(m, i, n)
                matrix = []
                for a, x in enumerate(order[m]):
                    for b, y in enumerate(order[n]):
                        s = 1 if sign is None else sign(m, i, n, x, y)
                        matrix.extend(
                            [idx[m + n - 1][z], a * len(order[n]) + b,
                             _value(f.source.field.mul(s, v))]
                            for z, v in f.image((x, y)).items())
                circ.append({"m": m, "n": n, "i": i, "matrix": matrix})
    return {"field": {"p": p.field.char} if p.field.char else "Q",
            "max_arity": max_arity or top, "terms": terms, "sigma": sigma,
            "circ": circ}


def anti_associative_spec(field: Field, sign=True) -> dict:
    """The anti-associative operad, zero above arity 3, declared up to
    arity 5: ass at arity 3 with circ(2, i, 2) negated on the words that
    do not start with i, or with every sign +1 when sign is False (the
    arity <= 3 part of ass)."""
    return spec_of(builtin_operad("ass", field, 3), 3, max_arity=5,
                   sign=lambda m, i, n, w, v: 1 if not sign or w[0] == i
                   else -1)


def swap_free_operad(field: Field, degree: int, N: int):
    """The free operad on one Sigma_2-free binary generator of the given
    degree: term(2) spanned by a and b, swapped by s_1."""
    terms = {1: ChainComplex(field, {0: ["u"]}, {}),
             2: ChainComplex(field, {degree: ["a", "b"]}, {})}
    swap = {"a": "b", "b": "a"}
    gens = SymSeq(field, N, terms, _adjacent_family(
        lambda n, s: ChainMap.from_rule(terms[n], terms[n],
                                        lambda d, l: [(swap[l], 1)])))
    return free_operad(gens, N)

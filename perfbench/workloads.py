"""The benchmark's workloads: seeded input generation, the child spec of
each run, and the known-answer checks on the program's output."""
from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

GEN_DEGREES = (-1, 0, 1, 2)


def _value(c):
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else str(c)


def _label(lab):
    return "-".join(map(str, lab)) if isinstance(lab, tuple) else str(lab)


def _triples(f, degree, src, tgt):
    """Sparse [row, col, value] triples of the chain map f in `degree`,
    over the label orders src and tgt."""
    row = {l: i for i, l in enumerate(tgt)}
    out = []
    for j, l in enumerate(src):
        for l2, c in sorted(f.apply(degree, {l: f.source.field.one}).items(),
                            key=lambda kv: row[kv[0]]):
            out.append([row[l2], j, _value(c)])
    return out


def operad_spec(p, seed: int) -> dict:
    """A `file:` description of the operad p, read through its public API
    (term, sigma_adj, circ), with the basis order of every arity shuffled
    by the seed. Only operads concentrated in one degree per arity are
    supported, which covers the built-ins."""
    rng = random.Random(seed)
    order, terms = {}, {}
    for n in range(2, p.N + 1):
        c = p.term(n)
        if len(c.basis) > 1:
            raise ValueError(f"arity {n} spans several degrees")
        labs = [l for d in c.degrees() for l in c.basis[d]]
        rng.shuffle(labs)
        order[n] = labs
        terms[str(n)] = {"basis": [{"name": _label(l),
                                    "degree": c.label_degree[l]}
                                   for l in labs], "d": []}
    sigma = {str(n): {str(i): _triples(p.sigma_adj(n, i), 0,
                                       order[n], order[n])
                      for i in range(1, n)}
             for n in range(2, p.N + 1)}
    circ = []
    for m in range(2, p.N + 1):
        for n in range(2, p.N + 2 - m):
            pairs = [(a, b) for a in order[m] for b in order[n]]
            for i in range(1, m + 1):
                circ.append({"m": m, "n": n, "i": i, "matrix": _triples(
                    p.circ(m, i, n), 0, pairs, order[m + n - 1])})
    return {"max_arity": p.N, "terms": terms, "sigma": sigma, "circ": circ}


def gens_spec(seed: int) -> dict:
    """Two binary generators in adjacent degrees from GEN_DEGREES, in
    seeded order. Degrees one apart give mixed Koszul signs, and every
    seed has the same grading shape up to a shift, so the same work."""
    rng = random.Random(seed)
    d = rng.choice(GEN_DEGREES[:-1])
    degs = [d, d + 1]
    rng.shuffle(degs)
    return {"gens": {"2": degs}}


def _write(path, blob):
    with open(path, "w") as fh:
        json.dump(blob, fh, sort_keys=True)


def _load(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


class Workload:
    name = ""
    why = ""

    def prepare(self, seed: int, workdir: str):
        """Write the inputs for this seed into workdir. Returns the child
        spec and the key of the reference output for these inputs."""
        raise NotImplementedError

    def check(self, code: int, stdout: str) -> list:
        """Known-answer failures of one run (empty when correct)."""
        raise NotImplementedError


class BarAss5(Workload):
    name = "bar_ass5_f2"
    why = ("bar of ass read from a seeded file: the Sigma-action and "
           "contraction map builds, over F2, plus file parsing and axioms")
    N = 5

    def prepare(self, seed, workdir):
        from opdual.fields import F2
        from opdual.operads import builtin_operad
        path = os.path.join(workdir, "ass.json")
        _write(path, operad_spec(builtin_operad("ass", F2, self.N), seed))
        argv = ["bar", "--operad", "file:" + path, "--max-arity",
                str(self.N), "--homology", "--field", "f2"]
        return {"kind": "cli", "argv": argv}, "any"

    def check(self, code, stdout):
        rep = _load(stdout)
        if code != 0 or rep is None:
            return [f"exit code {code}, stdout not a report"]
        want = {str(n): {str(n - 1): math.factorial(n)}
                for n in range(1, self.N + 1)}
        if rep.get("tables") != want:
            return [f"H(B(ass)) is {rep.get('tables')}, want n! in "
                    f"degree n-1"]
        return []


class KKGraded4(Workload):
    name = "kk_graded4_q"
    why = ("double dual of a trivial operad on two graded binary "
           "generators over Q: bar five times, cobar, theta, ranks")
    N = 4

    def prepare(self, seed, workdir):
        path = os.path.join(workdir, "gens.json")
        blob = gens_spec(seed)
        _write(path, blob)
        argv = ["kk", "--operad", "trivial:" + path, "--max-arity",
                str(self.N)]
        key = ",".join(map(str, blob["gens"]["2"]))
        return {"kind": "cli", "argv": argv}, key

    def check(self, code, stdout):
        rep = _load(stdout)
        if code != 0 or rep is None:
            return [f"exit code {code}, stdout not a report"]
        checks = {c["name"]: c["pass"] for c in rep.get("checks", ())}
        want = {"cb_to_kk_iso", "composite_iso", "homology_match"}
        if set(checks) != want or not all(checks.values()):
            return [f"kk checks {checks}"]
        return []


class DualW4(Workload):
    name = "dualw_com4_q"
    why = ("co-W resolution and theta_star of bar(com) over Q: the "
           "End-side mirror, dominated by theta_cells and d^2 checks")
    N = 4
    TREES = 1 + 1 + 4 + 26   # trees of arity 1..4

    def prepare(self, seed, workdir):
        return {"kind": "dualw", "max_arity": self.N}, "any"

    def check(self, code, stdout):
        rep = _load(stdout)
        if code != 0 or rep is None:
            return [f"exit code {code}, stdout not a report"]
        rows = rep.get("trees", [])
        bad = [r["tree"] for r in rows
               if not (r["eta_quasi_iso"] and r["zeta_after_eta_identity"]
                       and r["theta_star_quasi_iso"])]
        if len(rows) != self.TREES or bad or not rep.get("pass"):
            return [f"{len(rows)} trees, failing {bad}"]
        return []


WORKLOADS = {w.name: w for w in (BarAss5(), KKGraded4(), DualW4())}

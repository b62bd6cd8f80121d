"""Command-line driver: load operads, run the constructions, emit
dimension/homology tables and verification reports."""
from __future__ import annotations

import argparse
import json
import random
import sys
from math import factorial

from .chain import ChainComplex, ChainMap, is_quasi_iso, linear_dual
from .trees import enumerate_trees
from .operads import (
    Operad, _prebuilt, builtin_operad, check_operad_axioms, free_operad,
    planar_section, symseq_from_degrees, trivial_operad, truncate,
)
from .barcobar import (
    bar, cobar_engine, planar_bar, w_construction, w_resolution, theta,
)
from .fields import Field
from .koszul import _str_keys, dual_precooperad, verify_kk


class CliError(Exception):
    """Input problem: bad file, bad flag, failed axiom. Exit code 2."""


def parse_field(s: str) -> Field:
    if s == "q":
        return Field(0)
    # f0 is no field: Field(0) would be the rationals
    if s.startswith("f") and s[1:].isdigit() and int(s[1:]):
        try:
            return Field(int(s[1:]))
        except ValueError as e:
            raise CliError(str(e))
    raise CliError(f"unknown field {s!r} (expected q or f<p>)")


def _json_int(v, what: str) -> int:
    """v when it is a JSON integer (an int, not a bool); CliError
    naming what otherwise, where int() would cut a float or a bool."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise CliError(f"{what} must be an integer, not {v!r}")


def _known_keys(obj, keys, what: str) -> None:
    """CliError naming a key of the JSON object obj that is not among
    keys, where it would be ignored without a word; obj of another type
    is left to the caller."""
    if isinstance(obj, dict):
        unknown = sorted(set(obj) - set(keys))
        if unknown:
            raise CliError(f"{what}: unknown key {unknown[0]!r} (the keys "
                           f"are {', '.join(keys)})")


def _field_from_spec(blob, fallback: Field) -> Field:
    fs = blob.get("field")
    if fs is None:
        return fallback
    if fs == "Q":
        return Field(0)
    _known_keys(fs, ("p",), f"field entry {fs!r}")
    if isinstance(fs, dict) and "p" in fs:
        p = _json_int(fs["p"], f"the p of field entry {fs!r}")
        try:
            if p == 0:
                raise ValueError("p must be a prime, not 0")
            return Field(p)
        except ValueError as e:
            raise CliError(f"bad field entry {fs!r} in operad spec: {e}")
    raise CliError(f"bad field entry {fs!r} in operad spec")


def _unique_keys(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict; ValueError when a key
    is given twice, where json would keep only the last value."""
    if len({k for k, _ in pairs}) < len(pairs):
        raise ValueError(f"a key is given twice in {[k for k, _ in pairs]}")
    return dict(pairs)


def _read_json_object(path: str, what: str) -> dict:
    """The JSON object in the file at path; CliError otherwise."""
    try:
        with open(path) as fh:
            blob = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as e:
        # json.load recurses once per level of nesting
        raise CliError(f"cannot read {what} {path}: {e}")
    if not isinstance(blob, dict):
        raise CliError(f"{what} {path} must hold a JSON object")
    return blob


def _sparse_to_images(triples, src_labels, tgt_labels, field):
    """Triples [row, col, val] -> per-source-label image dicts."""
    out = {l: {} for l in src_labels}
    try:
        for row, col, val in triples:
            # type, not isinstance: a JSON true or false is a bool, no index
            if not (type(row) is int and type(col) is int
                    and 0 <= col < len(src_labels)
                    and 0 <= row < len(tgt_labels)):
                raise CliError(f"matrix entry [{row},{col}] is not an integer "
                               f"index pair in range")
            if not isinstance(val, str):
                val = _json_int(val, f"matrix value at [{row},{col}]")
            out[src_labels[col]][tgt_labels[row]] = field.of(val)
    except (TypeError, ValueError, ZeroDivisionError) as e:
        raise CliError(f"bad matrix: each entry is [row, col, "
                       f"value] with a value in the field ({e!r})")
    return out


def _check_degrees(what, imgs, src_degree, tgt_degree, shift):
    """CliError unless every entry of imgs sends a source label of degree
    k to a target label of degree k + shift."""
    for src, img in imgs.items():
        for tgt in img:
            k, k2 = src_degree(src), tgt_degree(tgt)
            if k2 != k + shift:
                raise CliError(f"{what}: entry {src!r} -> {tgt!r} goes from "
                               f"degree {k} to degree {k2}, not {k + shift}")


def _by_arity(blob, key: str, where: str) -> list:
    """The entries of the JSON object blob[key] as (arity, value) pairs;
    CliError, naming where (the spec), unless it is an object keyed by
    distinct integers."""
    sec = blob.get(key, {})
    if not isinstance(sec, dict):
        raise CliError(f"{where}: {key} must be a JSON object")
    try:
        pairs = [(int(k), v) for k, v in sec.items()]
    except ValueError as e:
        raise CliError(f"{where}: {key} must be keyed by integer arities "
                       f"({e})")
    if len({n for n, _ in pairs}) < len(pairs):
        raise CliError(f"{where}: {key} gives an arity twice")
    return pairs


def load_operad_spec(path: str, field: Field | None = None) -> Operad:
    """Build an operad from a JSON description and validate its axioms.

    Format: {"field": "Q"|{"p":2}, "max_arity": N,
             "terms": {n: {"basis": [{"name","degree"}], "d": [[r,c,v]]}},
             "sigma": {n: {i: [[r,c,v]]}},
             "circ": [{"m","n","i","matrix": [[r,c,v]]}]}.
    Matrix triples index the basis lists in file order; a circ source
    index is a*len(term(n))+b for the pair (a-th of term(m), b-th of
    term(n)). Every term lies in arity 1..N; arity 1 is the unit, one
    basis element in degree 0, and may be omitted. A circ entry with m or
    n equal to 1 is fixed by the unit law and, if given, must be the
    identity. No term, sigma index or circ entry may be given twice, and
    no object may hold a key that this format does not name.
    """
    blob = _read_json_object(path, "operad spec")
    _known_keys(blob, ("field", "max_arity", "terms", "sigma", "circ"),
                f"operad spec {path}")
    field = _field_from_spec(blob, field or Field(0))
    N = _json_int(blob.get("max_arity", 0), f"operad spec {path}: max_arity")
    if N < 1:
        raise CliError("operad spec needs max_arity >= 1")

    terms = {1: ChainComplex(field, {0: ["u"]}, {})}
    names = {1: ["u"]}
    degree = {1: {"u": 0}}
    for n, tdata in _by_arity(blob, "terms", f"operad spec {path}"):
        if not 1 <= n <= N:
            raise CliError(f"term {n} lies outside the arities 1..{N}")
        labels, degs = [], {}
        _known_keys(tdata, ("basis", "d"), f"term {n}")
        try:
            for b in tdata["basis"]:
                _known_keys(b, ("name", "degree"), f"term {n}: basis entry")
                labels.append(b["name"])
                degs[b["name"]] = _json_int(b["degree"], f"term {n}: degree")
        except (KeyError, TypeError) as e:
            raise CliError(f"term {n}: each basis entry needs a name and an "
                           f"integer degree ({e!r})")
        imgs = _sparse_to_images(tdata.get("d", []), labels, labels, field)
        _check_degrees(f"term {n}: d", imgs, degs.get, degs.get, -1)

        def rule(d, lab, imgs=imgs):
            return list(imgs[lab].items())

        basis = {}
        for l in labels:
            basis.setdefault(degs[l], []).append(l)
        try:
            terms[n] = ChainComplex.from_rule(field, basis, rule)
        except ValueError as e:
            raise CliError(f"term {n}: {e}")
        names[n] = labels
        degree[n] = degs
    if terms[1].dims() != {0: 1}:
        raise CliError("term 1 must be the unit: one basis element in "
                       "degree 0")

    adjacents = {}
    for n, sdata in _by_arity(blob, "sigma", f"operad spec {path}"):
        if n not in terms:
            raise CliError(f"sigma given for missing arity {n}")
        if not isinstance(sdata, dict):
            raise CliError(f"sigma for arity {n} must be a JSON object")
        for ik, triples in sdata.items():
            try:
                i = int(ik[2:]) if ik.startswith("s_") else int(ik)
            except ValueError:
                raise CliError(f"sigma index {ik!r} for arity {n} is not "
                               f"an integer")
            if not 1 <= i < n:
                raise CliError(f"sigma index {i} out of range for arity {n}")
            if (n, i) in adjacents:
                raise CliError(f"sigma ({n},{i}) is given twice")
            imgs = _sparse_to_images(triples, names[n], names[n], field)
            _check_degrees(f"sigma ({n},{i})", imgs, degree[n].get,
                           degree[n].get, 0)
            try:
                adjacents[(n, i)] = ChainMap.from_rule(
                    terms[n], terms[n],
                    lambda d, lab, imgs=imgs: list(imgs[lab].items()))
            except ValueError as e:
                raise CliError(f"sigma ({n},{i}): {e}")

    circ_imgs = {}
    circs = blob.get("circ", [])
    if not isinstance(circs, list):
        raise CliError(f"operad spec {path}: circ must be a JSON list")
    for c in circs:
        _known_keys(c, ("m", "n", "i", "matrix"),
                    f"operad spec {path}: circ entry")
        try:
            m, n, i = (_json_int(c[k], f"operad spec {path}: circ {k}")
                       for k in "mni")
            triples = c["matrix"]
        except (KeyError, TypeError) as e:
            raise CliError(f"operad spec {path}: each circ entry needs "
                           f"integer m, n, i and a matrix ({e!r})")
        if m not in terms or n not in terms or m + n - 1 not in terms:
            raise CliError(f"circ ({m},{n},{i}) references a missing arity")
        if not 1 <= i <= m:
            raise CliError(f"circ ({m},{n},{i}): i lies outside 1..{m}")
        if (m, i, n) in circ_imgs:
            raise CliError(f"circ ({m},{n},{i}) is given twice")
        pairs = [(a, b) for a in names[m] for b in names[n]]
        imgs = _sparse_to_images(triples, pairs, names[m + n - 1], field)
        _check_degrees(f"circ ({m},{n},{i})", imgs,
                       lambda ab: degree[m][ab[0]] + degree[n][ab[1]],
                       degree[m + n - 1].get, 0)
        if 1 in (m, n):
            keep = 0 if n == 1 else 1
            if any({l: v for l, v in img.items() if v != field.zero}
                   != {ab[keep]: field.one} for ab, img in imgs.items()):
                raise CliError(f"circ ({m},{n},{i}): a composition with the "
                               f"unit must be the identity")
        circ_imgs[(m, i, n)] = imgs

    def circ_builder(p, m, i, n):
        src = p.pair_complex(m, n)
        imgs = circ_imgs.get((m, i, n))
        if imgs is None:
            return ChainMap.zero(src, p.term(m + n - 1))
        try:
            return ChainMap.from_rule(
                src, p.term(m + n - 1),
                lambda d, lab, imgs=imgs: list(imgs[lab].items()))
        except ValueError as e:
            raise CliError(f"circ ({m},{n},{i}): {e}")

    try:
        p = Operad(field, N, terms, _prebuilt(adjacents), circ_builder,
                   name=path)
        fails = check_operad_axioms(p)
    except (ValueError, CliError) as e:
        raise CliError(f"operad spec {path} rejected: {e}")
    if fails:
        raise CliError(f"operad spec {path} fails axioms: {', '.join(fails)}")
    return p


def load_symseq_spec(path: str, field: Field, N: int):
    """Generator file for the trivial/free selectors: degrees per arity,
    {"gens": {n: [degrees]}, "max_arity": M?, "field": ...?}, M (N by
    default) at least N, and no other key."""
    blob = _read_json_object(path, "generator spec")
    _known_keys(blob, ("field", "gens", "max_arity"), f"generator spec {path}")
    field = _field_from_spec(blob, field)
    top = _json_int(blob.get("max_arity", N),
                    f"generator spec {path}: max_arity")
    gens = {}
    for n, v in _by_arity(blob, "gens", f"generator spec {path}"):
        if not isinstance(v, list):
            raise CliError(f"bad generator spec {path}: the degrees of "
                           f"arity {n} must be a JSON list")
        gens[n] = [_json_int(d, f"generator spec {path}: a degree")
                   for d in v]
    if any(n < 2 for n in gens):
        raise CliError("generators must sit in arity >= 2")
    if top < N:
        raise CliError(f"generator spec {path} has max_arity {top}, below "
                       f"--max-arity {N}")
    if any(n > top for n in gens):
        raise CliError(f"generator spec {path} has generators in arity "
                       f"{max(gens)}, above its max_arity {top}")
    return symseq_from_degrees(field, top, gens)


def select_operad(sel: str, field: Field, N: int) -> Operad:
    if sel in ("com", "ass"):
        return builtin_operad(sel, field, N)
    if sel.startswith("trivial:"):
        return trivial_operad(load_symseq_spec(sel[8:], field, N))
    if sel.startswith("free:"):
        return free_operad(load_symseq_spec(sel[5:], field, N), N)
    if sel.startswith("file:"):
        p = load_operad_spec(sel[5:], field)
        if p.N < N:
            raise CliError(f"operad spec {sel[5:]} has max_arity {p.N}, "
                           f"below --max-arity {N}")
        return p
    raise CliError(f"unknown operad selector {sel!r}")


# -- reports --------------------------------------------------------------

def table_of(c: ChainComplex, homology: bool) -> dict:
    return c.homology_table() if homology else c.dims()


def emit(report: dict, out: str) -> str:
    if out == "json":
        return json.dumps(report, sort_keys=True)
    lines = ["arity\tdegree\tdim"]
    for n in sorted(report["tables"], key=int):
        for d in sorted(report["tables"][n], key=int):
            lines.append(f"{n}\t{d}\t{report['tables'][n][d]}")
    return "\n".join(lines)


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="opdual",
        description="bar/cobar/W/Koszul constructions for operads of "
                    "chain complexes, with duality checks")
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(sp, operad=True):
        sp.add_argument("--max-arity", type=int, default=3, metavar="N")
        sp.add_argument("--field", default="q",
                        help="q for the rationals, f<p> for a prime field")
        sp.add_argument("--out", choices=("json", "tsv"), default="json")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--verbose", action="store_true",
                        help="include differential matrices in json output")
        if operad:
            sp.add_argument("--operad", default="com",
                            help="com | ass | trivial:<file> | free:<file> "
                                 "| file:<path>")
            sp.add_argument("--truncate", type=int, default=None, metavar="K",
                            help="replace the operad by its arity <= K part")
            sp.add_argument("--homology", action="store_true")

    common(sub.add_parser("trees", help="tree census"), operad=False)
    for v, h in (("bar", "bar construction tables"),
                 ("cobar", "cobar of the dual cooperad"),
                 ("w", "cubical resolution tables"),
                 ("koszul", "dual of the bar construction"),
                 ("kk", "double-dual comparison report")):
        common(sub.add_parser(v, help=h))
    cp = sub.add_parser("check", help="run a verification and report")
    cp.add_argument("target", choices=("axioms", "theta", "w", "kk"))
    common(cp)

    args = ap.parse_args(argv)
    field = parse_field(args.field)
    N = args.max_arity
    if N < 1:
        raise CliError("--max-arity must be >= 1")

    report = {"command": args.verb, "field": repr(field).lower(),
              "max_arity": N, "tables": {}, "checks": []}

    if args.verb == "trees":
        for n in range(1, N + 1):
            report["tables"][str(n)] = {"0": len(enumerate_trees(n))}
        print(emit(report, args.out))
        return 0

    p = select_operad(args.operad, field, N)
    # a spec's own field replaces --field
    report["field"] = repr(p.field).lower()
    if args.truncate is not None:
        if not 1 <= args.truncate <= p.N:
            raise CliError(f"--truncate must lie in 1..{p.N}")
        p = truncate(p, args.truncate)

    def fill_tables(term_of, copies=lambda n: 1):
        for n in range(1, N + 1):
            c = term_of(n)
            report["tables"][str(n)] = {
                str(k): copies(n) * v
                for k, v in table_of(c, args.homology).items()}
            if args.verbose and args.out == "json":
                report["tables"][str(n)]["d"] = _matrix_triples(c)

    if args.verb in ("bar", "koszul"):
        # on a Sigma-free operad, bar and koszul build only the planar
        # part R(n) of each term, whose n! translates sum to the term;
        # --verbose prints whole matrices, so it builds whole terms
        section = None if args.verbose else planar_section(p, N)
        if section is None:
            term, copies = bar(p, N).term, lambda n: 1
        else:
            term, copies = planar_bar(p, N, section).get, factorial
        fill_tables(term if args.verb == "bar"
                    else lambda n: linear_dual(term(n)), copies)
    elif args.verb == "cobar":
        q = dual_precooperad(p)
        fill_tables(lambda n: cobar_engine(q, n).complex)
    elif args.verb == "w":
        fill_tables(w_construction(p, N).term)
    elif args.verb == "kk":
        report.update(verify_kk(p, N))
    elif args.verb == "check":
        _run_check(args, p, N, report)

    print(emit(report, args.out))
    return 0 if all(c["pass"] for c in report["checks"]) else 1


def _matrix_triples(c: ChainComplex) -> dict:
    out = {}
    for k in c.degrees():
        m = c.d_matrix(k)
        trips = [[r, col, str(v)] for (r, col), v in sorted(m.data.items())]
        if trips:
            out[str(k)] = trips
    return out


def _run_check(args, p: Operad, N: int, report: dict) -> None:
    rng = random.Random(args.seed)
    if args.target == "axioms":
        # a file: operad passed every identity at load, and truncating
        # it keeps them all
        fails = ([] if args.operad.startswith("file:")
                 else check_operad_axioms(p))
        report["checks"].append({"name": "operad axioms",
                                 "pass": not fails,
                                 "witness": fails or "all identities hold"})
        return
    if args.target == "w":
        wp, etas, zetas = w_resolution(p, N)
        for n in range(1, N + 1):
            retr = zetas[n].then(etas[n]) == ChainMap.identity(p.term(n))
            qi = is_quasi_iso(etas[n])
            report["tables"][str(n)] = _str_keys(wp.term(n).dims())
            report["checks"].append(
                {"name": f"resolution retract arity {n}",
                 "pass": retr and qi,
                 "witness": f"section exact: {retr}, cone acyclic: {qi}"})
        return
    if args.target == "theta":
        wp, cb, th = theta(p, N)
        for n in range(1, N + 1):
            ok = th[n].is_iso()
            wd = wp.term(n).dims()
            # in ascending degree, as the engine-built cobar listed them
            cd = dict(sorted(cb.term(n).dims().items()))
            report["tables"][str(n)] = _str_keys(cd)
            report["checks"].append(
                {"name": f"comparison iso arity {n}", "pass": ok,
                 "witness": f"dims {_str_keys(wd)} vs {_str_keys(cd)}"})
        # seeded spot-check of equivariance
        for _ in range(3):
            n = rng.randint(2, N) if N >= 2 else 1
            vals = list(range(1, n + 1))
            rng.shuffle(vals)
            sigma = dict(zip(range(1, n + 1), vals))
            ok = wp.act(n, sigma).then(th[n]) == th[n].then(cb.act(n, sigma))
            report["checks"].append(
                {"name": f"equivariance sample arity {n}", "pass": ok,
                 "witness": f"permutation {vals}"})
        return
    report.update(verify_kk(p, N))


def main(argv=None) -> int:
    try:
        return run(argv)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as e:
        # an invariant check (d^2 = 0, the chain-map law) failed
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print("out of memory", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

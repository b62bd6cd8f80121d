"""The planar path of `bar` and `koszul`: on a Sigma-free operad they
build only the planar part R(n) of each bar term and print n! times its
tables. These tests hold it to the full path: equal tables, equal
differentials on R, a fallback on every other input, and mutants of the
section that the invariant checks stop."""
import inspect
import itertools
import json

import pytest

from opdual import cli, operads
from opdual.barcobar import bar, bar_dims, planar_bar
from opdual.fields import F2, QQ, Field
from opdual.koszul import koszul_dual
from opdual.operads import (
    builtin_operad, free_operad, planar_section, symseq_from_degrees,
    trivial_operad,
)
from specs import anti_associative_spec, spec_of, swap_free_operad

N = 5
F3 = Field(3)


def _file(tmp_path, blob, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(blob))
    return f"file:{path}"


# the inputs that take the planar path: (operad selector or spec
# builder, field, extra flags)
PLANAR = {
    "ass-q": ("ass", "q", ()),
    "ass-f2": ("ass", "f2", ()),
    "ass-truncate3-q": ("ass", "q", ("--truncate", "3")),
    "seeded-file-ass-f2": (lambda: spec_of(builtin_operad("ass", F2, N), N,
                                           seed=3), "f2", ()),
}

def _swap_dg(order):
    """A spec with term(2) spanned by x, y, x', y' in the given order:
    d x = y, d x' = y', and s_1 swapping x with x' and y with y'."""
    degree = {"x": 1, "y": 0, "x'": 1, "y'": 0}
    at = {l: k for k, l in enumerate(order)}
    return {"max_arity": N, "terms": {"2": {
        "basis": [{"name": l, "degree": degree[l]} for l in order],
        "d": [[at["y"], at["x"], 1], [at["y'"], at["x'"], 1]]}},
        "sigma": {"2": {"1": [[at[b], at[a], 1] for a, b in (
            ("x", "x'"), ("x'", "x"), ("y", "y'"), ("y'", "y"))]}}}


PLANAR["differential-q"] = (lambda: _swap_dg(["x", "y", "x'", "y'"]), "q",
                            ())
for _f, _fs in ((QQ, "q"), (F2, "f2"), (F3, "f3")):
    PLANAR[f"anti-associative-{_fs}"] = (
        lambda f=_f: anti_associative_spec(f), _fs, ())
    for _deg in (0, 1):
        PLANAR[f"swap-free-degree{_deg}-{_fs}"] = (
            lambda f=_f, d=_deg: spec_of(swap_free_operad(f, d, N), N),
            _fs, ())


def _argv(tmp_path, key):
    sel, field, extra = PLANAR[key]
    if callable(sel):
        sel = _file(tmp_path, sel())
    return ["--operad", sel, "--max-arity", str(N), "--field", field,
            *extra]


def _operad(argv):
    """The operad the command line argv selects, as cli.run builds it."""
    args = dict(zip(argv[::2], argv[1::2]))
    p = cli.select_operad(args["--operad"], cli.parse_field(args["--field"]),
                          N)
    if "--truncate" in args:
        p = operads.truncate(p, int(args["--truncate"]))
    return p


def _counting(monkeypatch):
    """cli.planar_bar wrapped to count its calls."""
    calls = []

    def counted(*a):
        calls.append(a)
        return planar_bar(*a)

    monkeypatch.setattr(cli, "planar_bar", counted)
    return calls


@pytest.mark.parametrize("key", sorted(PLANAR))
def test_the_planar_path_prints_the_tables_of_the_full_path(
        key, tmp_path, capsys, monkeypatch):
    argv = _argv(tmp_path, key)
    p = _operad(argv)
    full = {"bar": bar(p, N), "koszul": koszul_dual(p, N)}
    calls = _counting(monkeypatch)
    for verb in ("bar", "koszul"):
        for homology in ((), ("--homology",)):
            for out in ("json", "tsv"):
                assert cli.main([verb, *argv, *homology, "--out", out]) == 0
                got = capsys.readouterr().out
                tables = {str(n): {str(k): v for k, v in cli.table_of(
                    full[verb].term(n), bool(homology)).items()}
                    for n in range(1, N + 1)}
                want = cli.emit({"command": verb,
                                 "field": repr(p.field).lower(),
                                 "max_arity": N, "tables": tables,
                                 "checks": []}, out)
                assert got == want + "\n", (verb, homology, out)
    assert len(calls) == 8

    # R(n) is a subcomplex of the full term, and its differential is the
    # full differential's submatrix on the labels of R(n)
    rs = planar_bar(p, N, planar_section(p, N))
    for n, r in rs.items():
        t = full["bar"].term(n)
        for d, labels in r.basis.items():
            for l in labels:
                assert t.label_degree[l] == d
                assert r.boundary_of(l) == t.boundary_of(l)


def test_bar_dims_are_the_dims_of_the_full_bar():
    a = symseq_from_degrees(QQ, 5, {2: [0, 1], 3: [2]})
    for p in (builtin_operad("com", QQ, 5), builtin_operad("ass", F2, 5),
              trivial_operad(a), free_operad(a, 4),
              operads.truncate(builtin_operad("ass", QQ, 5), 3)):
        b = bar(p, p.N)
        assert bar_dims(p, p.N) == {n: b.term(n).dims()
                                    for n in range(1, p.N + 1)}


def test_planar_bar_builds_one_tensor_per_arity_sequence(monkeypatch):
    # the 903 planar trees of arity 7 and the smaller ones have 64 vertex
    # arity sequences; the tensor of each is built once and shared
    real, built = operads.tensor_many, []

    def counted(field, factors):
        built.append(len(factors))
        return real(field, factors)

    monkeypatch.setattr(operads, "tensor_many", counted)
    p = builtin_operad("ass", QQ, 7)
    r = planar_bar(p, 7, planar_section(p, 7))
    assert r[7].total_dim() == 903
    assert len(built) == 64


def test_inputs_with_no_planar_section(tmp_path):
    gens = symseq_from_degrees(QQ, 4, {2: [0], 3: [1]})
    for p in (builtin_operad("com", QQ, 4), trivial_operad(gens),
              free_operad(gens, 4)):
        assert planar_section(p, 4) is None
    for sel in ("trivial", "free"):
        path = tmp_path / f"{sel}.json"
        path.write_text(json.dumps({"gens": {"2": [0, 1]}}))
        p = cli.select_operad(f"{sel}:{path}", QQ, 3)
        assert planar_section(p, 3) is None

    # s_1 sends y to x - y: an involution, but not monomial
    blob = {"max_arity": 2,
            "terms": {"2": {"basis": [{"name": "x", "degree": 0},
                                      {"name": "y", "degree": 0}]}},
            "sigma": {"2": {"1": [[0, 0, 1], [0, 1, 1], [1, 1, -1]]}}}
    p = cli.load_operad_spec(_file(tmp_path, blob)[5:])
    assert planar_section(p, 2) is None
    # s_1 fixes x and y: monomial, but each orbit has 1 < 2! labels
    blob["sigma"]["2"]["1"] = [[0, 0, 1], [1, 1, 1]]
    p = cli.load_operad_spec(_file(tmp_path, blob)[5:])
    assert planar_section(p, 2) is None
    # x and y' come first in their orbits, and d x = y leaves S(2)
    p = cli.load_operad_spec(
        _file(tmp_path, _swap_dg(["x", "y'", "x'", "y"]))[5:])
    assert planar_section(p, 2) is None
    p = cli.load_operad_spec(
        _file(tmp_path, _swap_dg(["x", "y", "x'", "y'"]))[5:])
    assert planar_section(p, 2) == {1: ["u"], 2: ["y", "x"]}
    # ass below arity 4 with the words reversed after each composition
    # x o_i y whose outer word x does not start with i: still an operad,
    # Sigma-free, but a o_1 a = 123 and a o_2 a = 321 share an orbit
    blob = spec_of(builtin_operad("ass", QQ, 3), 3)
    words = sorted(itertools.permutations((1, 2, 3)))
    rev = {k: words.index(w[::-1]) for k, w in enumerate(words)}
    for c in blob["circ"]:
        c["matrix"] = [[rev[r] if (c["i"], col) in ((1, 2), (1, 3), (2, 0),
                                                    (2, 1)) else r, col, v]
                       for r, col, v in c["matrix"]]
    p = cli.load_operad_spec(_file(tmp_path, blob)[5:])
    assert planar_section(p, 3) is None
    # so does the identity action of com, written out as a spec
    p = cli.load_operad_spec(
        _file(tmp_path, spec_of(builtin_operad("com", QQ, 3), 3))[5:])
    assert planar_section(p, 3) is None


def test_verbose_and_sigma_fixed_inputs_never_build_the_planar_part(
        capsys, monkeypatch):
    calls = _counting(monkeypatch)
    for argv in (["bar", "--operad", "ass", "--verbose"],
                 ["koszul", "--operad", "ass", "--verbose"],
                 ["bar", "--operad", "com"], ["w", "--operad", "ass"],
                 ["kk", "--operad", "ass"]):
        assert cli.main(argv + ["--max-arity", "3"]) == 0
    assert calls == []
    assert cli.main(["koszul", "--operad", "ass", "--max-arity", "3"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def test_a_section_mutant_without_the_orbit_size_test_is_stopped_by_the_dims(
        capsys, monkeypatch):
    # the finder with its orbit-size test cut out accepts com, whose
    # planar part is too big by far; the dims certificate exits 3 before
    # any table is printed
    src = inspect.getsource(operads._free_orbits)
    cut = src.replace(
        "if len(orbit) != factorial(k):\n            return None", "")
    assert cut != src
    mutant = dict(vars(operads))
    exec(cut, mutant)
    exec(inspect.getsource(operads.planar_section), mutant)
    com = builtin_operad("com", QQ, 4)
    assert planar_section(com, 4) is None
    assert mutant["planar_section"](com, 4) == {k: ["e"] for k in range(1, 5)}
    monkeypatch.setattr(cli, "planar_section", mutant["planar_section"])
    code = cli.main(["bar", "--operad", "com", "--max-arity", "4"])
    cap = capsys.readouterr()
    assert code == 3
    assert cap.out == ""
    assert cap.err.startswith("internal error: arity 2: the bar complex has "
                              "the dims {1: 1}, not 2 times the dims {1: 1}")


def test_a_section_whose_composites_leave_it_exits_3_naming_the_label(
        capsys, monkeypatch):
    def bent(p, n):
        s = planar_section(p, n)
        s[3] = [(2, 1, 3)]
        return s

    monkeypatch.setattr(cli, "planar_section", bent)
    code = cli.main(["bar", "--operad", "ass", "--max-arity", "4"])
    cap = capsys.readouterr()
    assert code == 3
    assert cap.out == ""
    assert "Traceback" not in cap.err
    assert "Tree[(1 2 3)], ((1, 2, 3),)) is not a label" in cap.err


# -- the anti-associative operad ------------------------------------------

ANTI_BAR = {"1": {"0": 1}, "2": {"1": 2}, "3": {"2": 6}, "4": {},
            "5": {"3": 480}}


@pytest.mark.parametrize("field,want", [
    (QQ, ANTI_BAR), (F3, ANTI_BAR),
    (F2, dict(ANTI_BAR, **{"4": {"2": 24, "3": 24},
                           "5": {"3": 600, "4": 120}}))])
def test_anti_associative_bar_homology(field, want, tmp_path, capsys):
    sel = _file(tmp_path, anti_associative_spec(field))
    assert cli.main(["bar", "--operad", sel, "--max-arity", "5",
                     "--homology"]) == 0
    assert json.loads(capsys.readouterr().out)["tables"] == want


def test_anti_associative_double_dual_and_the_all_plus_mutant(tmp_path,
                                                              capsys):
    sel = _file(tmp_path, anti_associative_spec(QQ))
    assert cli.main(["kk", "--operad", sel, "--max-arity", "4"]) == 0
    assert all(c["pass"] for c in json.loads(capsys.readouterr().out)[
        "checks"])
    # with every sign +1 the spec is ass below arity 4, whose bar has
    # homology in arity 4
    plus = _file(tmp_path, anti_associative_spec(QQ, sign=False), "plus.json")
    assert cli.main(["bar", "--operad", plus, "--max-arity", "4",
                     "--homology"]) == 0
    assert json.loads(capsys.readouterr().out)["tables"]["4"] == \
        {"2": 24, "3": 24}

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from opdual.fields import _PRIME_BOUND, F2, QQ
from opdual import cli
from opdual.operads import builtin_operad
from opdual.cli import (
    CliError, emit, load_operad_spec, main, parse_field, select_operad,
)
from opdual.koszul import verify_kk
from specs import anti_associative_spec, spec_of

COM3 = {
    "field": "Q", "max_arity": 3,
    "terms": {"2": {"basis": [{"name": "e2", "degree": 0}], "d": []},
              "3": {"basis": [{"name": "e3", "degree": 0}], "d": []}},
    "sigma": {"2": {"1": [[0, 0, 1]]},
              "3": {"1": [[0, 0, 1]], "2": [[0, 0, 1]]}},
    "circ": [{"m": 2, "n": 2, "i": 1, "matrix": [[0, 0, 1]]},
             {"m": 2, "n": 2, "i": 2, "matrix": [[0, 0, 1]]}],
}


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr()


def test_trees_census(capsys):
    code, cap = run(capsys, "trees", "--max-arity", "5")
    assert code == 0
    blob = json.loads(cap.out)
    assert blob["tables"] == {"1": {"0": 1}, "2": {"0": 1}, "3": {"0": 4},
                              "4": {"0": 26}, "5": {"0": 236}}


def test_bar_homology_table(capsys):
    code, cap = run(capsys, "bar", "--operad", "com", "--max-arity", "4",
                    "--homology", "--field", "q")
    assert code == 0
    blob = json.loads(cap.out)
    assert blob["tables"] == {"1": {"0": 1}, "2": {"1": 1},
                              "3": {"2": 2}, "4": {"3": 6}}


def test_tsv_output(capsys):
    code, cap = run(capsys, "w", "--operad", "com", "--max-arity", "3",
                    "--out", "tsv")
    assert code == 0
    lines = cap.out.strip().splitlines()
    assert lines[0] == "arity\tdegree\tdim"
    assert "3\t0\t4" in lines and "3\t1\t3" in lines


def test_check_theta(capsys):
    code, cap = run(capsys, "check", "theta", "--operad", "ass",
                    "--max-arity", "3")
    assert code == 0
    blob = json.loads(cap.out)
    assert all(c["pass"] for c in blob["checks"])
    assert any("iso" in c["name"] for c in blob["checks"])


def test_check_w_and_kk(capsys):
    for argv in (("check", "w", "--operad", "com", "--max-arity", "3"),
                 ("kk", "--operad", "com", "--max-arity", "3")):
        code, cap = run(capsys, *argv)
        assert code == 0
        assert all(c["pass"] for c in json.loads(cap.out)["checks"])


def test_kk_prints_the_library_report_and_nothing_else(capsys, tmp_path):
    gens = tmp_path / "gens.json"
    gens.write_text(json.dumps({"gens": {"2": [0, 1]}}))
    anti = tmp_path / "anti.json"
    anti.write_text(json.dumps(anti_associative_spec(QQ)))
    for sel, field in (("com", "q"), ("ass", "f3"), (f"trivial:{gens}", "q"),
                       (f"file:{anti}", "q")):
        p = select_operad(sel, parse_field(field), 4)
        rep = verify_kk(p, 4)
        for argv in (("kk",), ("check", "kk")):
            code, cap = run(capsys, *argv, "--operad", sel, "--field", field,
                            "--max-arity", "4")
            head = {"command": argv[0], "field": repr(p.field).lower(),
                    "max_arity": 4}
            assert (code, cap.out) == (0, emit({**head, **rep}, "json") + "\n")


def test_determinism(capsys):
    argv = ("check", "theta", "--operad", "com", "--max-arity", "3",
            "--seed", "11")
    out1 = run(capsys, *argv)[1].out
    out2 = run(capsys, *argv)[1].out
    assert out1 == out2


def test_load_operad_spec_matches_builtin(tmp_path):
    f = tmp_path / "com3.json"
    f.write_text(json.dumps(COM3))
    p = load_operad_spec(str(f))
    q = builtin_operad("com", QQ, 3)
    for (m, i, n) in ((2, 1, 2), (2, 2, 2)):
        assert p.circ(m, i, n).matrix(0).data == q.circ(m, i, n).matrix(0).data


def test_load_operad_spec_broken_axiom(tmp_path, capsys):
    bad = json.loads(json.dumps(COM3))
    bad["circ"][1]["matrix"] = [[0, 0, -1]]
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    with pytest.raises(CliError, match=r"equivariance \(2,"):
        load_operad_spec(str(f))
    code, cap = run(capsys, "bar", "--operad", f"file:{f}")
    assert code == 2
    assert "equivariance (2," in cap.err


@pytest.mark.parametrize("truncate", [(), ("--truncate", "3")])
def test_check_axioms_reads_the_identities_once(tmp_path, capsys, monkeypatch,
                                                truncate):
    # a file: operad is checked at load, and check axioms prints that
    # verdict: the report of the built-in operad it spells out
    spec = tmp_path / "ass.json"
    spec.write_text(json.dumps(spec_of(builtin_operad("ass", F2, 4), 4)))
    real, calls = cli.check_operad_axioms, []

    def counted(p):
        calls.append(p.name)
        return real(p)

    monkeypatch.setattr(cli, "check_operad_axioms", counted)
    outs = []
    for sel in (f"file:{spec}", "ass"):
        calls.clear()
        code, cap = run(capsys, "check", "axioms", "--operad", sel,
                        "--field", "f2", "--max-arity", "4", *truncate)
        assert (code, len(calls)) == (0, 1), sel
        outs.append(cap.out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["checks"] == [
        {"name": "operad axioms", "pass": True,
         "witness": "all identities hold"}]


def test_load_operad_spec_differential(tmp_path):
    # a degree-1 generator with d(x) = y loads; d failing d^2 = 0 does not
    blob = {
        "field": {"p": 2}, "max_arity": 2,
        "terms": {"2": {"basis": [{"name": "x", "degree": 1},
                                  {"name": "y", "degree": 0}],
                        "d": [[1, 0, 1]]}},
        "sigma": {"2": {"1": [[0, 0, 1], [1, 1, 1]]}},
        "circ": [],
    }
    f = tmp_path / "dg.json"
    f.write_text(json.dumps(blob))
    p = load_operad_spec(str(f))
    assert p.field.char == 2
    assert p.term(2).dims() == {0: 1, 1: 1}

    blob["terms"]["2"]["basis"].append({"name": "z", "degree": 2})
    blob["terms"]["2"]["d"].append([0, 2, 1])
    blob["sigma"]["2"]["1"].append([2, 2, 1])
    f.write_text(json.dumps(blob))
    with pytest.raises(CliError):
        load_operad_spec(str(f))


def test_generator_selectors(capsys, tmp_path):
    f = tmp_path / "gen.json"
    f.write_text(json.dumps({"gens": {"2": [0]}}))
    code, cap = run(capsys, "koszul", "--operad", f"trivial:{f}",
                    "--max-arity", "3")
    assert code == 0
    assert json.loads(cap.out)["tables"]["3"] == {"-2": 3}
    code, cap = run(capsys, "w", "--operad", f"free:{f}", "--max-arity", "3")
    assert code == 0
    assert json.loads(cap.out)["tables"]["3"] == {"0": 6, "1": 3}


def test_truncate_modifier(capsys):
    code, cap = run(capsys, "bar", "--operad", "ass", "--max-arity", "3",
                    "--truncate", "2")
    assert code == 0
    assert json.loads(cap.out)["tables"]["3"] == {"2": 12}


def test_input_errors(capsys, tmp_path):
    assert run(capsys, "bar", "--operad", "bogus")[0] == 2
    assert run(capsys, "bar", "--operad", "file:/does/not/exist")[0] == 2
    assert run(capsys, "bar", "--field", "f9")[0] == 2
    # Field(0) is the rationals: a prime field needs a prime
    for f in ("f0", "f00"):
        code, cap = run(capsys, "bar", "--field", f)
        assert code == 2 and cap.err.startswith("error: "), f
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([{"gens": {"2": [0]}}]))
    badgen = tmp_path / "badgen.json"
    badgen.write_text(json.dumps({"gens": {"2": [0, "x"]}}))
    nodegree = tmp_path / "nodegree.json"
    nodegree.write_text(json.dumps(
        {"max_arity": 2, "terms": {"2": {"basis": [{"name": "x"}]}}}))
    badarity = tmp_path / "badarity.json"
    badarity.write_text(json.dumps({"max_arity": "two", "terms": {}}))
    lowgen = tmp_path / "lowgen.json"
    lowgen.write_text(json.dumps({"max_arity": 2, "gens": {"2": [0]}}))
    lowfile = tmp_path / "lowfile.json"
    lowfile.write_text(json.dumps({"max_arity": 2, "terms": {}}))
    fieldx = tmp_path / "fieldx.json"
    fieldx.write_text(json.dumps({"field": {"p": "x"}, "gens": {"2": [0]}}))
    field4 = tmp_path / "field4.json"
    field4.write_text(json.dumps({"field": {"p": 4}, "gens": {"2": [0]}}))
    filefield4 = tmp_path / "filefield4.json"
    filefield4.write_text(json.dumps(
        {"field": {"p": 4}, "max_arity": 2, "terms": {}}))
    field0 = tmp_path / "field0.json"
    field0.write_text(json.dumps({"field": {"p": 0}, "gens": {"2": [0]}}))
    filefield0 = tmp_path / "filefield0.json"
    filefield0.write_text(json.dumps(
        {"field": {"p": 0}, "max_arity": 2, "terms": {}}))
    highgen = tmp_path / "highgen.json"
    highgen.write_text(json.dumps({"gens": {"2": [0], "5": [1]},
                                   "max_arity": 4}))
    highdefault = tmp_path / "highdefault.json"
    highdefault.write_text(json.dumps({"gens": {"2": [0], "5": [1]}}))
    x = {"basis": [{"name": "x", "degree": 0}]}
    malformed = [
        {"max_arity": 2, "terms": {"x": {"basis": []}}},
        {"max_arity": 2, "terms": []},
        {"max_arity": 2, "terms": {}, "circ": [{"n": 2, "i": 1, "matrix": []}]},
        {"max_arity": 2, "terms": {}, "circ": {"c": 1}},
        {"max_arity": 2, "terms": {"2": dict(x, d=[[0]])}},
        {"max_arity": 2, "terms": {"2": dict(x, d=[[0, 0, "a"]])}},
        {"max_arity": 2, "terms": {"2": x}, "sigma": {"2": {"s_x": []}}},
        {"max_arity": 2, "terms": {"2": x}, "sigma": {"2": []}},
    ]
    specs = []
    for k, blob in enumerate(malformed):
        spec = tmp_path / f"malformed{k}.json"
        spec.write_text(json.dumps(blob))
        specs.append(("bar", "--operad", f"file:{spec}", "--max-arity", "2"))
    # entries joining labels of the wrong degrees: a KeyError from
    # from_rule, or (the second d) an entry dropped without a word
    a, b = ({"basis": [{"name": n, "degree": k}]} for n, k in (("a", 0),
                                                              ("b", 1)))
    ab = {"basis": a["basis"] + b["basis"]}
    ident = {"1": [[0, 0, 1], [1, 1, 1]]}
    wrong_degree = [
        {"max_arity": 3, "terms": {"2": a, "3": b},
         "sigma": {"2": {"1": [[0, 0, 1]]},
                   "3": {"1": [[0, 0, 1]], "2": [[0, 0, 1]]}},
         "circ": [{"m": 2, "n": 2, "i": 1, "matrix": [[0, 0, 1]]}]},
        {"max_arity": 3, "terms": {"2": ab}, "sigma": {"2": {"1": [[1, 0, 1]]}}},
        {"max_arity": 3, "terms": {"2": dict(ab, d=[[1, 1, 1]])},
         "sigma": {"2": ident}},
        {"max_arity": 3, "terms": {"2": dict(ab, d=[[1, 0, 1]])},
         "sigma": {"2": ident}},
    ]
    for k, blob in enumerate(wrong_degree):
        spec = tmp_path / f"wrongdegree{k}.json"
        spec.write_text(json.dumps(blob))
        specs.append(("bar", "--operad", f"file:{spec}", "--max-arity", "3"))
    # a unit composition other than the identity (x o_1 unit = -x), a
    # term 1 that is not the unit, terms outside the arities 1..3 and a
    # circ at an input i outside 1..m: each was read and then dropped
    # without a word
    one = {"1": [[0, 0, 1]]}
    dropped = [
        dict(COM3, circ=COM3["circ"] + [{"m": 2, "n": 2, "i": 3,
                                         "matrix": [[0, 0, 5]]}]),
        {"max_arity": 3, "terms": {"2": a}, "sigma": {"2": one},
         "circ": [{"m": 2, "n": 1, "i": 1, "matrix": [[0, 0, -1]]}]},
        {"max_arity": 3, "terms": {"1": {"basis": [{"name": "u", "degree": 0},
                                                   {"name": "v", "degree": 3}]},
                                   "2": a}, "sigma": {"2": one}},
        {"max_arity": 3, "terms": {"2": a, "5": a},
         "sigma": {"2": one, "5": one}},
        {"max_arity": 3, "terms": {"2": a, "-2": a}, "sigma": {"2": one}},
    ]
    # a map given twice: each entry but the last was dropped without a
    # word (zero circ entries listed before the identity ones, a sigma
    # index given as "1" and as "s_1", an arity given as "2" and "02")
    zero = [{"m": 2, "n": 2, "i": i, "matrix": []} for i in (1, 2)]
    dropped += [
        dict(COM3, circ=zero + COM3["circ"]),
        dict(COM3, sigma=dict(COM3["sigma"], **{
            "2": {"1": [[0, 0, -1]], "s_1": [[0, 0, 1]]}})),
        dict(COM3, terms=dict(COM3["terms"], **{"02": a})),
    ]
    for k, blob in enumerate(dropped):
        spec = tmp_path / f"dropped{k}.json"
        spec.write_text(json.dumps(blob))
        specs.append(("bar", "--operad", f"file:{spec}", "--max-arity", "3"))
    # a key given twice in the JSON text itself, which json reads as its
    # last value
    text = json.dumps(COM3)
    sigma2 = '"2": {"1": [[0, 0, 1]]}'
    assert sigma2 in text
    rawkey = tmp_path / "rawkey.json"
    rawkey.write_text(text.replace(
        sigma2, '"2": {"1": [[0, 0, -1]], "1": [[0, 0, 1]]}'))
    rawgen = tmp_path / "rawgen.json"
    rawgen.write_text('{"gens": {"2": [0], "2": [1]}}')
    # an array nested too deep for json.load, which recursed out
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    twogen = tmp_path / "twogen.json"
    twogen.write_text(json.dumps({"gens": {"2": [0], "02": [1]}}))
    strgen = tmp_path / "strgen.json"
    strgen.write_text(json.dumps({"gens": {"2": "12"}}))
    # a JSON float or boolean where an integer belongs: int() cut each one
    # down (a degree 1.5 or true to 1, max_arity 3.9 to 3, p 3.7 to 3)
    cut = [
        ("trivial", {"gens": {"2": [1.5]}}),
        ("trivial", {"gens": {"2": [True]}}),
        ("trivial", {"gens": {"2": [0]}, "max_arity": 3.9}),
        ("trivial", {"field": {"p": 3.7}, "gens": {"2": [0]}}),
        ("file", {"max_arity": 2.5, "terms": {}}),
        ("file", {"max_arity": 2, "terms": {"2": {
            "basis": [{"name": "x", "degree": 0.7}]}},
                  "sigma": {"2": {"1": [[0, 0, 1]]}}}),
        ("file", dict(COM3, sigma=dict(COM3["sigma"], **{
            "2": {"1": [[0, 0, 1.0]]}}))),
        ("file", dict(COM3, sigma=dict(COM3["sigma"], **{
            "2": {"1": [[0, 0, True]]}}))),
        ("file", dict(COM3, circ=[dict(COM3["circ"][0], m=2.0),
                                  COM3["circ"][1]])),
    ]
    for k, (kind, blob) in enumerate(cut):
        spec = tmp_path / f"cut{k}.json"
        spec.write_text(json.dumps(blob))
        specs.append(("bar", "--operad", f"{kind}:{spec}", "--max-arity", "2"))
    # a key that is not in the file format: each one was ignored without
    # a word (a misspelled circ left every composition zero)
    unknown = [
        ("file", {k if k != "circ" else "cric": v for k, v in COM3.items()}),
        ("file", dict(COM3, sigmas={})),
        ("file", dict(COM3, terms=dict(COM3["terms"], **{
            "2": dict(COM3["terms"]["2"], dd=[])}))),
        ("file", dict(COM3, terms=dict(COM3["terms"], **{
            "2": {"basis": [{"name": "e2", "degree": 0, "deg": 1}]}}))),
        ("file", dict(COM3, circ=[dict(COM3["circ"][0], j=2),
                                  COM3["circ"][1]])),
        ("file", dict(COM3, field={"p": 2, "q": 3})),
        ("trivial", {"gens": {"2": [0]}, "max_arty": 3}),
        ("trivial", {"gen": {"2": [0]}}),
        ("free", {"field": {"p": 3, "P": 3}, "gens": {"2": [0]}}),
    ]
    for k, (kind, blob) in enumerate(unknown):
        spec = tmp_path / f"unknown{k}.json"
        spec.write_text(json.dumps(blob))
        specs.append(("bar", "--operad", f"{kind}:{spec}", "--max-arity", "3"))
    for argv in (("bar", "--operad", f"trivial:{listed}"),
                 ("bar", "--operad", f"file:{listed}"),
                 ("bar", "--operad", f"trivial:{badgen}"),
                 ("bar", "--operad", f"file:{nodegree}"),
                 ("bar", "--operad", f"file:{badarity}"),
                 ("bar", "--operad", f"trivial:{lowgen}", "--max-arity", "4"),
                 ("bar", "--operad", f"file:{lowfile}", "--max-arity", "4"),
                 ("bar", "--operad", f"trivial:{fieldx}", "--max-arity", "2"),
                 ("bar", "--operad", f"trivial:{field4}", "--max-arity", "2"),
                 ("bar", "--operad", f"file:{filefield4}",
                  "--max-arity", "2"),
                 ("bar", "--operad", f"trivial:{field0}", "--max-arity", "2"),
                 ("bar", "--operad", f"file:{filefield0}",
                  "--max-arity", "2"),
                 ("bar", "--operad", f"trivial:{highgen}", "--max-arity", "3"),
                 ("bar", "--operad", f"trivial:{highdefault}",
                  "--max-arity", "3"),
                 ("bar", "--operad", f"trivial:{strgen}", "--max-arity", "3"),
                 ("bar", "--operad", f"file:{rawkey}", "--max-arity", "3"),
                 ("bar", "--operad", f"trivial:{rawgen}", "--max-arity", "3"),
                 ("bar", "--operad", f"trivial:{twogen}", "--max-arity", "3"),
                 ("bar", "--operad", f"free:{twogen}", "--max-arity", "3"),
                 ("bar", "--operad", f"file:{deep}"),
                 ("bar", "--operad", f"trivial:{deep}"),
                 ("bar", "--operad", "com", "--truncate", "-1"),
                 ("bar", "--operad", "com", "--truncate", "0"),
                 ("bar", "--operad", "com", "--max-arity", "3",
                  "--truncate", "9"), *specs):
        code, cap = run(capsys, *argv)
        assert code == 2, argv
        assert cap.err.startswith("error: "), argv


def test_report_names_the_field_of_the_operad(capsys, tmp_path):
    # a spec's field replaces --field, and the report says so
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"field": {"p": 2}, "gens": {"2": [0]}}))
    code, cap = run(capsys, "bar", "--operad", f"trivial:{spec}",
                    "--field", "f3")
    assert code == 0
    assert json.loads(cap.out)["field"] == "f2"


def test_identity_unit_entries_load(capsys, tmp_path):
    # the unit compositions are fixed by the unit law; given, they must
    # be the identity, and then they load like any other entry
    blob = json.loads(json.dumps(COM3))
    blob["circ"] += [{"m": 2, "n": 1, "i": k, "matrix": [[0, 0, 1]]}
                     for k in (1, 2)]
    blob["circ"].append({"m": 1, "n": 3, "i": 1, "matrix": [[0, 0, 1]]})
    f = tmp_path / "unit.json"
    f.write_text(json.dumps(blob))
    code, cap = run(capsys, "bar", "--operad", f"file:{f}", "--max-arity", "3")
    assert code == 0, cap.err
    com = run(capsys, "bar", "--operad", "com", "--max-arity", "3")[1]
    assert json.loads(cap.out)["tables"] == json.loads(com.out)["tables"]


def test_readme_examples_load(capsys, tmp_path):
    # every json block of the README section on description files loads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Operad description files")[1]
    blocks = re.findall(r"```json\n(.*?)```", section.split("\n## ")[0],
                        re.DOTALL)
    assert len(blocks) == 2
    for k, text in enumerate(blocks):
        f = tmp_path / f"readme{k}.json"
        f.write_text(text)
        kinds = ("file",) if "terms" in json.loads(text) else ("trivial",
                                                                "free")
        for kind in kinds:
            code, cap = run(capsys, "bar", "--operad", f"{kind}:{f}",
                            "--max-arity", "3")
            assert code == 0, (kind, cap.err)


def test_generator_above_max_arity_is_named(capsys, tmp_path):
    f = tmp_path / "high.json"
    f.write_text(json.dumps({"gens": {"2": [0], "5": [1]}}))
    code, cap = run(capsys, "bar", "--operad", f"trivial:{f}",
                    "--max-arity", "3")
    assert code == 2
    assert "arity 5" in cap.err


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(p, N):
        raise ValueError("chain-map law fails at degree 2")

    monkeypatch.setattr("opdual.cli.bar", broken)
    code, cap = run(capsys, "bar", "--operad", "com", "--max-arity", "2")
    assert code == 3
    assert "Traceback" not in cap.err
    assert cap.err.startswith("internal error: ")
    assert "degree 2" in cap.err
    assert cap.out == ""


def test_out_of_memory_exit_code(capsys, monkeypatch):
    def exhausted(p, N):
        raise MemoryError

    monkeypatch.setattr("opdual.cli.bar", exhausted)
    code, cap = run(capsys, "bar", "--operad", "com", "--max-arity", "2")
    assert code == 4
    assert "Traceback" not in cap.err
    assert cap.err.startswith("out of memory")
    assert cap.out == ""


def test_a_stray_label_exits_3_without_a_traceback(capsys, monkeypatch):
    # the action rule of the closed forms emits a decoration that labels
    # no basis element; kk builds the actions of bar
    monkeypatch.setattr("opdual.barcobar._top_cell_move",
                        lambda t, t2, sigma, deco: (("stray",), 1))
    code, cap = run(capsys, "kk", "--operad", "com", "--max-arity", "3")
    assert code == 3
    assert "Traceback" not in cap.err
    assert cap.err.startswith("internal error: ")
    assert "'stray'" in cap.err and "degree 1" in cap.err


def test_fields_agree_on_homology(capsys):
    tables = []
    for fld in ("q", "f2"):
        code, cap = run(capsys, "bar", "--operad", "ass", "--max-arity", "3",
                        "--homology", "--field", fld)
        assert code == 0
        tables.append(json.loads(cap.out)["tables"])
    assert tables[0] == tables[1]


def test_a_large_prime_field_runs_and_one_past_the_bound_exits_2(
        capsys, tmp_path):
    t0 = time.perf_counter()
    code, cap = run(capsys, "trees", "--field", "f1000000000000000003",
                    "--max-arity", "2")
    assert code == 0 and time.perf_counter() - t0 < 1
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({"field": {"p": 10 ** 18 + 3},
                                "gens": {"2": [0]}}))
    code, _ = run(capsys, "bar", "--operad", f"trivial:{spec}",
                  "--max-arity", "3")
    assert code == 0
    for p in (_PRIME_BOUND, _PRIME_BOUND + 2, 10 ** 30 + 57):
        code, cap = run(capsys, "trees", "--field", f"f{p}",
                        "--max-arity", "2")
        assert code == 2 and "below" in cap.err
        spec.write_text(json.dumps({"field": {"p": p}, "gens": {"2": [0]}}))
        code, cap = run(capsys, "bar", "--operad", f"trivial:{spec}",
                        "--max-arity", "3")
        assert code == 2 and "below" in cap.err


def test_importing_the_cli_leaves_out_dataclasses_and_inspect():
    # every command-line run pays for the modules its import pulls in:
    # dataclasses imports inspect, which made importing opdual.cli take
    # 0.028 s instead of 0.017 s (medians of 21 runs, 2-vCPU x86_64)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run(
        [sys.executable, "-c", "import sys, opdual.cli; print(sorted("
         "{'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("kind", ["trivial", "file"])
def test_a_declared_max_arity_costs_nothing_above_the_terms(kind, tmp_path):
    # only the arities that hold a term are walked, so a spec declaring
    # max_arity 10**30 runs as fast, and prints the same, as one declaring 3
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    sel = {}
    for top in (3, 10 ** 30):
        spec = tmp_path / f"{kind}-{top}.json"
        blob = ({"gens": {"2": [0, 1]}, "max_arity": top} if kind == "trivial"
                else dict(COM3, max_arity=top))
        spec.write_text(json.dumps(blob))
        sel[top] = f"{kind}:{spec}"
    for verb in (["bar"], ["cobar"], ["kk"], ["check", "axioms"]):
        outs = []
        for top in (3, 10 ** 30):
            res = subprocess.run(
                [sys.executable, "-m", "opdual.cli", *verb, "--operad",
                 sel[top], "--max-arity", "3"],
                capture_output=True, text=True, env=env, timeout=30)
            assert res.returncode == 0, (verb, top, res.stderr)
            outs.append(res.stdout)
        assert outs[0] == outs[1], verb

"""Self-tests of the benchmark: input generators, the isolation guard,
the tracer's completeness and dump schema, and the result contract.

    python3 -m pytest perfbench/tests -q

The traced-stdout test runs every workload twice (about two minutes).
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from run import ROOT, SRC, child_env, spawn  # noqa: E402
from workloads import WORKLOADS, operad_spec  # noqa: E402

sys.path.insert(0, SRC)

SMALL = {"kind": "cli", "argv": ["kk", "--operad", "com", "--max-arity", "3"]}


def cli(*argv):
    return subprocess.run([sys.executable, "-m", "opdual.cli", *argv],
                          capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=300)


def write_ass(tmp_path, seed, N):
    from opdual.fields import F2
    from opdual.operads import builtin_operad
    path = tmp_path / f"ass-{seed}.json"
    path.write_text(json.dumps(operad_spec(builtin_operad("ass", F2, N),
                                           seed)))
    return str(path)


# -- input generators -----------------------------------------------------

def test_generated_ass_description_passes_check_axioms(tmp_path):
    path = write_ass(tmp_path, 7, 5)
    res = cli("check", "axioms", "--operad", "file:" + path,
              "--max-arity", "5", "--field", "f2")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["checks"][0]["pass"] is True


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_ass_has_builtin_bar_homology(tmp_path, seed):
    flags = ["--max-arity", "4", "--homology", "--field", "f2"]
    path = write_ass(tmp_path, seed, 4)
    got = cli("bar", "--operad", "file:" + path, *flags)
    want = cli("bar", "--operad", "ass", *flags)
    assert got.returncode == want.returncode == 0
    assert got.stdout == want.stdout


def test_seed_shuffles_the_basis_and_is_repeatable():
    from opdual.fields import F2
    from opdual.operads import builtin_operad
    p = builtin_operad("ass", F2, 3)
    assert operad_spec(p, 1) == operad_spec(p, 1) != operad_spec(p, 2)


# -- isolation guard --------------------------------------------------------

def test_isolation_guard_fires_when_two_runs_share_an_interpreter(tmp_path):
    spec = dict(SMALL, mode="full")
    code = (f"import child\n"
            f"assert child.run({spec!r}, {str(tmp_path / 'a.json')!r}) == 0\n"
            f"child.run({spec!r}, {str(tmp_path / 'b.json')!r})\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=child_env(), cwd=HERE, timeout=300)
    assert (tmp_path / "a.json").exists()
    assert not (tmp_path / "b.json").exists()
    assert res.returncode != 0
    assert "IsolationError" in res.stderr


# -- tracer -----------------------------------------------------------------

def test_tracer_leaves_no_unwrapped_alias():
    import opdual.barcobar as barcobar
    import opdual.cli as cli_mod
    import opdual.cubes as cubes
    import opdual.koszul as koszul
    mods = tracer.opdual_modules()
    t = tracer.Tracer().install()
    try:
        originals = t.wrapped()
        assert originals
        for mod in mods:
            for name, val in vars(mod).items():
                assert originals.get(id(val)) is not val, \
                    f"{mod.__name__}.{name} is still the unwrapped original"
        for alias, home in ((koszul.bar, barcobar.bar),
                            (cli_mod.bar, barcobar.bar),
                            (cli_mod.verify_kk, koszul.verify_kk),
                            (barcobar.theta_cells, cubes.theta_cells),
                            (barcobar.wbar_family, cubes.wbar_family)):
            assert alias is home and hasattr(alias, "__wrapped__")
    finally:
        t.uninstall()
    assert not hasattr(koszul.bar, "__wrapped__")
    assert barcobar.theta_cells is originals[id(barcobar.theta_cells)]


def _trace(tmp_path, spec, name="m.json"):
    out = str(tmp_path / name)
    res = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                          json.dumps(dict(spec, mode="trace")), out],
                         capture_output=True, text=True, env=child_env(),
                         cwd=ROOT, timeout=300)
    assert res.returncode == 0, res.stderr
    with open(out) as fh:
        return json.load(fh)["trace"]


def test_trace_dump_schema(tmp_path):
    d = _trace(tmp_path, SMALL)
    assert d["schema"] == tracer.SCHEMA
    assert set(d) == {"schema", "elapsed_s", "functions", "counters",
                      "distinct", "layers", "spans"}
    for q, f in d["functions"].items():
        assert q.split(".", 1)[0] in tracer.LAYERS
        assert set(f) == {"calls", "total_s", "self_s"}
        assert f["calls"] >= 1 and f["total_s"] >= 0
        assert -1e-6 <= f["self_s"] <= f["total_s"] + 1e-6
    assert all(isinstance(v, int) and v >= 0 for v in d["counters"].values())
    assert all(isinstance(v, int) for v in d["distinct"].values())
    self_sum = sum(lay["self_s"] for lay in d["layers"].values())
    assert 0 < self_sum <= d["elapsed_s"]
    assert d["spans"]
    for i, s in enumerate(d["spans"]):
        assert set(s) == {"name", "parent", "start_s", "end_s"}
        assert s["parent"] is None or 0 <= s["parent"] < i
        assert 0 <= s["start_s"] <= s["end_s"] <= d["elapsed_s"]
    metrics = tracer.layer_metrics(d)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        names = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) | {"trace.overhead_s"} == names
    assert metrics["operads.tree_relabel_calls"][0] >= \
        metrics["operads.tree_relabel_distinct"][0] > 0


def test_trace_counts_repeat_exactly(tmp_path):
    a = _trace(tmp_path, SMALL, "a.json")
    b = _trace(tmp_path, SMALL, "b.json")
    calls = lambda d: {q: f["calls"] for q, f in d["functions"].items()}
    assert calls(a) == calls(b)
    assert a["counters"] == b["counters"]
    assert a["distinct"] == b["distinct"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_stdout_is_byte_identical(tmp_path, name):
    w = WORKLOADS[name]
    spec, _ = w.prepare(0, str(tmp_path))
    plain = spawn(spec, "full", str(tmp_path), 300)
    traced = spawn(spec, "trace", str(tmp_path), 300)
    assert plain["code"] == traced["code"] == 0
    assert w.check(plain["code"], plain["stdout"]) == []
    assert traced["stdout"] == plain["stdout"]
    assert traced["trace"]["schema"] == tracer.SCHEMA


# -- result contract ----------------------------------------------------------

def test_fails_without_the_program(tmp_path):
    """Where only BENCHMARK.json and the benchmark exist, the benchmark
    exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "kk_graded4_q", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], capture_output=True, text=True,
                         cwd=tmp_path, timeout=180)
    assert res.returncode != 0
    assert res.stdout == ""


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    assert names == ["bar_ass5_f2", "kk_graded4_q"]
    for w in bench["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert [m["name"] for m in bench["end_to_end"]] == \
        ["wall_norm_s", "setup_s", "peak_rss_mb"]

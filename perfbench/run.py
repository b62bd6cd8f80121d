"""opdual benchmark: run one workload in fresh interpreters and report
end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding `src/opdual`).
One client, closed loop: the children run back to back, never in
parallel, each in a fresh interpreter so that no opdual cache survives
from one run to the next.

--trace 0: rounds of three set-up probes (the full command, stopped as
  soon as the operad is ready), one full run and a host-speed
  calibration, until --seconds is used up (at least two rounds). Reports
  wall_norm_s, the full runs' wall time scaled by the calibrations on
  either side of each, and the medians of setup_s, scaled the same way,
  and peak_rss_mb.
--trace 1: one untraced and one traced full run. Reports the per-layer
  metrics of the traced run and trace.overhead_s.

Every run's exit code, verdict and known-answer tables are checked, and
its stdout is compared with perfbench/reference.json. The last line of
stdout is the result: {"correct", "attempted", "failed", "metrics"}. The
line before it is the full report (samples, quartiles, provenance),
which is also written to .perfbench/results/.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_PROBES = 3     # set-up probes before each full child
MIN_RUNS = 2         # full children per untraced run, at least
RUN_LIMIT_S = 170.0  # the whole invocation stays below this
CALIB_S = 2.5        # calibration before the first and after each full child
REF_UNIT_S = 0.025   # the calibration unit's time on the nominal host
CALIB_RANK = 40      # the rank every calibration unit must find

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here. Exit 2, no result line."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    env["PYTHONHASHSEED"] = "0"
    return env


def calibration_matrix() -> list:
    """A fixed sparse 40 x 40 matrix over Q, as dict rows."""
    rng = random.Random(0)
    return [{j: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
             for j in rng.sample(range(40), 6)} for _ in range(40)]


def calibration_unit(matrix) -> int:
    """Rank of the matrix by elimination on dict rows: the kind of work
    opdual does (Fractions, dicts, small loops), with no opdual code, so
    a change to the program cannot change it."""
    rows = [dict(r) for r in matrix]
    rank = 0
    for col in range(len(matrix)):
        piv = next((r for r in rows if r.get(col)), None)
        if piv is None:
            continue
        rows.remove(piv)
        rank += 1
        inv = 1 / piv[col]
        for r in rows:
            c = r.get(col)
            if c:
                f = c * inv
                for k, v in piv.items():
                    x = r.get(k, 0) - f * v
                    if x:
                        r[k] = x
                    else:
                        r.pop(k, None)
    return rank


def host_speed(seconds: float) -> float:
    """Mean wall time of one calibration unit over `seconds`.

    A shared host's speed drifts by up to 1.5x over tens of seconds.
    Run on the CPU the children run on, right before and after a child,
    this tracks the slowdown the child saw (correlation 0.8 over 36 runs
    of kk_graded4_q on a 2-vCPU Xeon VM), and wall_norm_s and setup_s
    divide it out: they are the times on a host where one unit takes
    REF_UNIT_S."""
    matrix = calibration_matrix()
    n, start = 0, time.perf_counter()
    end = start + seconds
    while True:
        if calibration_unit(matrix) != CALIB_RANK:
            raise BenchError("the calibration unit computed a wrong rank")
        n += 1
        now = time.perf_counter()
        if now >= end:
            return (now - start) / n


def spawn(spec: dict, mode: str, workdir: str, timeout: float) -> dict:
    """Run one child to completion. wall_s runs from spawn to exit, as
    seen from here; peak_rss_mb is the child's ru_maxrss."""
    measure = os.path.join(workdir, f"measure-{mode}.json")
    out_path = os.path.join(workdir, f"stdout-{mode}.txt")
    err_path = os.path.join(workdir, f"stderr-{mode}.txt")
    if os.path.exists(measure):
        os.remove(measure)
    argv = [sys.executable, CHILD, json.dumps(dict(spec, mode=mode)), measure]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        fd = os.pidfd_open(proc.pid)
        try:
            if not select.select([fd], [], [], timeout)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(fd)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    got = {}
    if os.path.exists(measure):
        with open(measure) as fh:
            got = json.load(fh)
    return {"code": proc.returncode, "stdout": stdout, "stderr": stderr,
            "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "setup_s": got.get("setup_s"), "trace": got.get("trace")}


def failures(run: dict, workload, reference) -> list:
    """Why one child's outcome is wrong (empty when it is right)."""
    if run["setup_s"] is None:
        return [f"no measurement, exit code {run['code']}: "
                f"{run['stderr'].strip()[-300:]}"]
    if run["mode"] == "setup":
        return [] if run["code"] == 0 else [f"exit code {run['code']}"]
    out = workload.check(run["code"], run["stdout"])
    if reference is None:
        out.append("no reference output for these inputs")
    elif run["stdout"] != reference:
        out.append("stdout differs from the reference output")
    return out


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def summarize(samples: dict, units: dict) -> dict:
    out = {}
    for name, xs in samples.items():
        q1, q3 = quartiles(xs)
        out[name] = {"median": statistics.median(xs), "q1": q1, "q3": q3,
                     "n": len(xs), "unit": units[name]}
    return out


def provenance(args) -> dict:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "opdual")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_sha = None
    return {"git_sha": git_sha, "src_sha256": h.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def measure(args, workload, spec, reference, workdir) -> dict:
    # One CPU for the parent and, by inheritance, every child, so that
    # the calibrations see the contention the children saw.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    runs = []

    def go(mode):
        left = RUN_LIMIT_S - (time.perf_counter() - t0)
        if left <= 0:
            raise BenchError("out of time before the minimum run count")
        run = spawn(spec, mode, workdir, left)
        run["mode"] = mode
        run["failures"] = failures(run, workload, reference)
        runs.append(run)
        return run

    if args.trace:
        plain, traced = go("full"), go("trace")
        metrics = {}
        if traced["trace"] is not None:
            from tracer import layer_metrics
            metrics = layer_metrics(traced["trace"])
            with open(os.path.join(workdir, "trace.json"), "w") as fh:
                json.dump(traced["trace"], fh)
        metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"],
                                       "s")
        samples, units = {}, {}
    else:
        # Rounds of probes, one full child and a calibration, spread over
        # the run so that the set-up median samples the whole of it.
        # Another round starts while a typical one would end less than
        # half a round past the deadline, so a run lasts about --seconds
        # on average.
        deadline = t0 + args.seconds
        speeds = [host_speed(CALIB_S)]
        rounds = []
        while True:
            start = time.perf_counter()
            first = len(runs)
            for _ in range(SETUP_PROBES):
                go("setup")
            go("full")
            speeds.append(host_speed(CALIB_S))
            # The round ran between the last two calibrations.
            for r in runs[first:]:
                r["scale"] = 2 * REF_UNIT_S / (speeds[-2] + speeds[-1])
            now = time.perf_counter()
            rounds.append(now - start)
            if now + max(rounds) > t0 + RUN_LIMIT_S:
                break
            if (len(rounds) >= MIN_RUNS
                    and now + statistics.median(rounds) / 2 > deadline):
                break
        fulls = [r for r in runs if r["mode"] == "full"]
        ready = [r for r in runs if r["setup_s"] is not None]
        samples = {
            "wall_norm_s": [r["wall_s"] * r["scale"] for r in fulls],
            "wall_s": [r["wall_s"] for r in fulls],
            "setup_s": [r["setup_s"] * r["scale"] for r in ready],
            "setup_raw_s": [r["setup_s"] for r in ready],
            "peak_rss_mb": [r["peak_rss_mb"] for r in fulls],
            "calib_unit_s": speeds,
        }
        units = {"wall_norm_s": "s", "wall_s": "s", "setup_s": "s",
                 "setup_raw_s": "s", "peak_rss_mb": "MB",
                 "calib_unit_s": "s"}
        # wall_norm_s pools the run's two to four full children: their
        # total wall time over the total the calibrations predict. With
        # so few children a mean is steadier than a median.
        metrics = {
            "wall_norm_s": (REF_UNIT_S * sum(r["wall_s"] for r in fulls)
                            / sum(REF_UNIT_S / r["scale"] for r in fulls),
                            "s"),
            "setup_s": (statistics.median(samples["setup_s"]), "s"),
            "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
        }
    failed = [r for r in runs if r["failures"]]
    return {
        "attempted": len(runs),
        "failed": len(failed),
        "failed_share": len(failed) / len(runs),
        "failures": sorted({f"{r['mode']}: {f}" for r in failed
                            for f in r["failures"]}),
        "runs": {"full": sum(r["mode"] == "full" for r in runs),
                 "setup": sum(r["mode"] == "setup" for r in runs),
                 "trace": sum(r["mode"] == "trace" for r in runs)},
        "samples": samples,
        "summary": summarize({k: v for k, v in samples.items() if v}, units),
        "metrics": metrics,
        "elapsed_s": time.perf_counter() - t0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "opdual", "__init__.py")):
        raise BenchError(f"no opdual package under {SRC}")
    sys.path.insert(0, SRC)
    if not compileall.compile_dir(os.path.join(SRC, "opdual"), quiet=1):
        raise BenchError("opdual does not compile")
    with open(REFERENCE) as fh:
        references = json.load(fh)

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spec, key = workload.prepare(args.seed, workdir)
    reference = references.get(workload.name, {}).get(key)

    res = measure(args, workload, spec, reference, workdir)
    report = dict(provenance(args), input_key=key, **{
        k: v for k, v in res.items() if k != "metrics"})
    report["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in res["metrics"].items()}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path = os.path.join(WORK, "results", name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)

"""Record the reference stdout of every workload input into
perfbench/reference.json, from the opdual code in this checkout.

    python3 perfbench/make_reference.py

Run it on the commit whose output is the reference; the benchmark then
fails any later run whose stdout differs. Every distinct input key is
covered: the seeds are walked until each key has been seen (`any` keys
are recorded from two seeds, which must agree). A run that fails its
known-answer check is not recorded.
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import sys

from run import REFERENCE, SRC, WORK, spawn
from workloads import GEN_DEGREES, WORKLOADS

sys.path.insert(0, SRC)

KEYS = {
    "bar_ass5_f2": {"any"},
    "kk_graded4_q": {f"{a},{b}" for d in GEN_DEGREES[:-1]
                     for a, b in ((d, d + 1), (d + 1, d))},
    "dualw_com4_q": {"any"},
}


def main() -> int:
    ref = {}
    for name, w in sorted(WORKLOADS.items()):
        todo, got = set(KEYS[name]), {}
        for seed in itertools.count():
            if not todo and (seed >= 2 or len(KEYS[name]) > 1):
                break
            workdir = os.path.join(WORK, "reference", f"{name}-{seed}")
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            spec, key = w.prepare(seed, workdir)
            if key not in todo and key != "any":
                continue
            run = spawn(spec, "full", workdir, 600)
            bad = w.check(run["code"], run["stdout"])
            if bad:
                print(f"{name} seed {seed}: {bad}", file=sys.stderr)
                return 1
            if key in got and got[key] != run["stdout"]:
                print(f"{name}: output for {key} depends on the seed",
                      file=sys.stderr)
                return 1
            got[key] = run["stdout"]
            todo.discard(key)
            print(f"{name} seed {seed} key {key}: {run['wall_s']:.1f} s",
                  flush=True)
        ref[name] = dict(sorted(got.items()))
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One measured run of one workload, in a fresh interpreter.

    python3 child.py SPEC_JSON MEASURE_PATH

SPEC_JSON describes the run (see `workloads.Workload.prepare`):
  {"kind": "cli", "argv": [...]}      opdual's command line
  {"kind": "dualw", "max_arity": N}   the library driver dualw.py
plus "mode": "full" (run the workload), "setup" (stop as soon as the
operad is ready: a set-up probe) or "trace" (a full run under the
tracer).

The program's stdout goes to this process's stdout untouched. The
measurements go to MEASURE_PATH as JSON: `setup_s`, the time from the
start of `import opdual` until the operad is ready, and in trace mode
the tracer's dump. The exit code is the program's.
"""
from __future__ import annotations

import json
import sys
import time


class SetupDone(Exception):
    """Ends a set-up probe as soon as the operad is ready."""


class IsolationError(RuntimeError):
    """A run found warm opdual caches: it does not own its interpreter."""


def assert_fresh(mods):
    """Raise IsolationError unless every lru_cache in the opdual modules
    is empty, as it is in a fresh interpreter."""
    warm = []
    for mod in mods:
        for name, fn in vars(mod).items():
            while fn is not None and not hasattr(fn, "cache_info"):
                fn = getattr(fn, "__wrapped__", None)
            if fn is not None and fn.cache_info().currsize:
                warm.append(f"{mod.__name__}.{name}")
    if warm:
        raise IsolationError("opdual caches already hold entries: "
                             + ", ".join(sorted(set(warm))))


def run(spec: dict, measure_path: str) -> int:
    t0 = time.perf_counter()
    if spec["kind"] == "cli":
        import opdual.cli as cli
    else:
        import dualw
    from opdual import cubes, trees
    assert_fresh((trees, cubes))

    tracer = None
    if spec["mode"] == "trace":
        from tracer import Tracer
        tracer = Tracer().install()

    ready = []

    def mark(p):
        ready.append(time.perf_counter())
        if spec["mode"] == "setup":
            raise SetupDone
        return p

    try:
        if spec["kind"] == "cli":
            select = cli.select_operad
            cli.select_operad = lambda *a: mark(select(*a))
            try:
                code = cli.main(spec["argv"])
            finally:
                cli.select_operad = select
        else:
            code = dualw.main(spec["max_arity"], mark)
    except SetupDone:
        code = 0
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.uninstall()

    out = {"setup_s": ready[0] - t0 if ready else None}
    if tracer is not None:
        out["trace"] = tracer.dump()
    with open(measure_path, "w") as fh:
        json.dump(out, fh)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return run(json.loads(argv[0]), argv[1])


if __name__ == "__main__":
    sys.exit(main())

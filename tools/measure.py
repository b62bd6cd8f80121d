"""Time one opdual command-line run in-process.

Usage, from the root of a checkout:

    python3 tools/measure.py ARGV...

runs opdual.cli.main(ARGV) in this interpreter, with the checkout's
src/ first on the import path, and prints one line:

    exit=0 wall_s=1.234 peak_rss_mb=40.1 stdout_sha256=9938cf75e0943132

exit is the return code of main; wall_s the perf_counter seconds of
the call (the import of opdual is not timed); peak_rss_mb the peak
resident set size of the process (ru_maxrss) after the call, import
included; stdout_sha256 the first 16 hex digits of the sha256 of what
the run printed to stdout, which is captured and not shown. Anything the
run prints to stderr passes through.

Compare two checkouts only when both run from the same kind of
bytecode: a fresh checkout, or one whose __pycache__ its own source
wrote. With PYTHONDONTWRITEBYTECODE set, a __pycache__ copied from
another tree is stale for every module that differs, so each of them
is compiled again at every import, which costs both time and memory:
on a 2-vCPU x86_64 host with Python 3.11.7, `trees --max-arity 3`
peaked at 20.0 MB with the bytecode of its own source and at 23.1 MB
with a __pycache__ copied from the parent commit.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from opdual.cli import main as cli_main

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(args))
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    print(f"exit={code} wall_s={wall:.3f} peak_rss_mb={rss_mb:.1f} "
          f"stdout_sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

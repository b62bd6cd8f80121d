import hashlib
import re
import subprocess
import sys
from pathlib import Path

from opdual.cli import main

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"exit=(\d+) wall_s=(\d+\.\d{3}) peak_rss_mb=(\d+\.\d) "
                  r"stdout_sha256=([0-9a-f]{16})")


def test_measure_prints_exit_wall_rss_and_stdout_hash(capsys):
    argv = ["trees", "--max-arity", "3"]
    res = subprocess.run([sys.executable, str(ROOT / "tools" / "measure.py"),
                          *argv], capture_output=True, text=True, cwd=ROOT,
                         timeout=120)
    assert res.returncode == 0, res.stderr
    m = LINE.fullmatch(res.stdout.strip())
    assert m, res.stdout
    code, wall, rss, digest = m.groups()
    assert code == "0"
    assert 0 <= float(wall) < 60
    assert float(rss) > 1
    # the hash is that of the run's own stdout, which measure.py swallows
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert digest == hashlib.sha256(out.encode()).hexdigest()[:16]

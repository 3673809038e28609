"""Time `lift --module C` on the K-generator chain C_K over Λ(a,b,c), one child per K.

    python scripts/lift_ladder.py K [K ...]    # e.g. 20 40 80 120

C_K is the rule of `tests/golden/chain20.dgres` and `chain40.dgres`, which
it reproduces byte for byte: generators f_i in degree 2i, i = 0..K-1, and
d f_i = c_i·f_{i-1}·a with c_i = ±p/q drawn from `Random(0)` (p, q in 1..5).
For each K the script writes C_K into a temporary directory, runs
`python -m dgres.cli lift C_K.dgres --module C` from this checkout in a
child with the report sent to a file, and prints the child's wall time,
its own peak RSS (from `os.wait4`), the report's size in bytes and its
sha256.  It is for the log: it exits 0 whenever every child ran, whatever
the command's verdict.  Nothing is written into the repository.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def chain_text(k: int) -> str:
    """The `.dgres` text of C_k: f_0..f_{k-1} over Λ(a,b,c), d f_i = c_i·f_{i-1}·a."""
    rng = random.Random(0)
    lines = [f"# C_{k} over Lambda(a,b,c), |a| = |b| = |c| = 1, d = 0: d f_i = c_i f_{{i-1}} a",
             "field rationals", "", "[algebra]", "ext a 1", "ext b 1", "ext c 1", "", "[module C]"]
    lines += [f"generator f{i} {2 * i}" for i in range(k)]
    for i in range(1, k):
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1))
        lines.append(f"entry f{i} f{i - 1} = {c}*a")
    return "\n".join(lines) + "\n"


def run_lift(path: Path, out: Path, env: dict) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS in MB) of one `lift` child writing its report to `out`."""
    with open(out, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "dgres.cli", "lift", str(path), "--module", "C"],
                                env=env, stdout=fh)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def main(argv: list[str]) -> int:
    if not argv or not all(a.isdigit() and int(a) >= 1 for a in argv):
        print("usage: python scripts/lift_ladder.py K [K ...]    (each K >= 1)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory() as tmp:
        for k in map(int, argv):
            path, out = Path(tmp) / f"chain{k}.dgres", Path(tmp) / f"chain{k}.out"
            path.write_text(chain_text(k), encoding="utf-8")
            code, wall, rss = run_lift(path, out, env)
            report = out.read_bytes()
            print(f"lift C_{k}: exit {code}, wall {wall:.2f} s, child peak RSS {rss:.1f} MB, "
                  f"report {len(report)} bytes, sha256 {hashlib.sha256(report).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

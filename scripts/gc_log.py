"""Log what the cyclic collector does during one CLI command, run in a child.

    python scripts/gc_log.py COMMAND FILE [OPTIONS...]

The child imports `dgres.cli` from this checkout, counts every collection
through `gc.callbacks`, times each one from its "start" to its "stop"
callback, and calls `dgres.cli.main` on the arguments with the report sent
to /dev/null.  The script prints the command's exit code, the wall time of
`main` and of the whole child, the child's peak RSS, the collections per
generation and the time spent in them.  It is for the log: it exits 0
whenever the child reported, whatever the command's verdict.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import gc, json, sys, time
from dgres.cli import main

counts, spent, started = [0, 0, 0], [0.0], [0.0]

def tally(phase, info):
    if phase == "start":
        started[0] = time.perf_counter()
    else:
        spent[0] += time.perf_counter() - started[0]
        counts[info["generation"]] += 1

gc.callbacks.append(tally)
t0 = time.perf_counter()
rc = main(sys.argv[2:])
wall = time.perf_counter() - t0
gc.callbacks.remove(tally)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"rc": rc, "main_s": wall, "collections": counts, "gc_s": spent[0]}, fh)
"""


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: python scripts/gc_log.py COMMAND FILE [OPTIONS...]", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with tempfile.TemporaryDirectory() as tmp:
        stats_path = Path(tmp) / "gc.json"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", CHILD, str(stats_path), *argv], env=env, stdout=subprocess.DEVNULL)
        child_s = time.perf_counter() - t0
        try:
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            print("the child wrote no collector statistics", file=sys.stderr)
            return 1
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    g0, g1, g2 = stats["collections"]
    print(f"dgres {' '.join(argv)}: exit {stats['rc']}")
    print(f"  wall: main {stats['main_s']:.2f} s, child {child_s:.2f} s; child peak RSS {rss:.1f} MB")
    print(f"  collections: generation 0: {g0}, generation 1: {g1}, generation 2: {g2}; "
          f"{stats['gc_s']:.3f} s in collections")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Time the fixed start-up of a dgres run: `import dgres.cli` in fresh interpreters.

Every CLI invocation starts a new interpreter and imports the package before
it reads its input, so this cost is paid once per problem.  The script
prints, over N fresh interpreters each:

- the median time of `import dgres.cli` with no bytecode cache for dgres:
  the package is imported from a copy in a temporary directory with
  PYTHONDONTWRITEBYTECODE=1, so every run compiles it from source;
- the same median with a bytecode cache in a temporary PYTHONPYCACHEPREFIX,
  filled by one untimed run first; a caller's PYTHONDONTWRITEBYTECODE is
  dropped for this side only;
- the `-X importtime` cumulative times of `dgres.cli`, `dgres` and of every
  other module the import adds (the standard library modules dgres uses),
  as medians over N more runs of each side.

Both sides read the standard library's bytecode from the same temporary
prefix, so they differ only in dgres's own cache.  Nothing is written into
the repository.

    python scripts/startup.py [--runs N]    # N defaults to 21
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import sys, time
before = set(sys.modules)
t0 = time.perf_counter()
import dgres.cli
elapsed = time.perf_counter() - t0
print(elapsed)
print(dgres.__file__)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def run_child(env: dict, root: Path, importtime: bool) -> tuple[float, list[str], dict[str, int]]:
    """One fresh interpreter: (seconds, modules added, {module: cumulative µs} when importtime)."""
    flags = ["-X", "importtime"] if importtime else []
    proc = subprocess.run([sys.executable, *flags, "-c", CHILD], env=env, capture_output=True, text=True, check=True)
    elapsed, path, added = proc.stdout.splitlines()
    if not Path(path).resolve().is_relative_to(root.resolve()):
        raise SystemExit(f"imported dgres from {path}, not from {root}")
    cumulative = {}
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum)
    return float(elapsed), added.split(), cumulative


def side_env(root: Path, prefix: Path, write_bytecode: bool) -> dict:
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(prefix))
    env["PYTHONPATH"] = os.pathsep.join([str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=21, help="fresh interpreters per side and per kind of run")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="dgres-startup-") as tmp:
        tmp = Path(tmp)
        cold_root = tmp / "cold"
        shutil.copytree(SRC / "dgres", cold_root / "dgres", ignore=shutil.ignore_patterns("__pycache__"))
        prefix = tmp / "pycache"
        sides = {
            "no cache": (side_env(cold_root, prefix, False), cold_root),
            "cache": (side_env(SRC, prefix, True), SRC),
        }
        run_child(*sides["cache"], importtime=False)  # fills the cache: the standard library's and dgres's
        times = {side: [] for side in sides}
        cumulative = {side: {} for side in sides}
        added: list[str] = []
        for _ in range(args.runs):
            for side, (env, root) in sides.items():
                times[side].append(run_child(env, root, importtime=False)[0])
                _, added, cum = run_child(env, root, importtime=True)
                for name, us in cum.items():
                    cumulative[side].setdefault(name, []).append(us)

    print(f"import dgres.cli, median of {args.runs} fresh interpreters per side (Python {sys.version.split()[0]})")
    for side in sides:
        print(f"  {side + ':':<10} {1e3 * statistics.median(times[side]):7.1f} ms")
    others = [m for m in added if m.split(".")[0] != "dgres"]
    print()
    print(f"-X importtime cumulative, median in ms{'no cache':>12}{'cache':>9}")
    for name in ["dgres.cli", "dgres"] + others:
        cells = "".join(f"{statistics.median(cumulative[side].get(name, [0])) / 1e3:>9.1f}" for side in sides)
        print(f"  {name:<38}{cells}")
    print()
    print(f"modules besides dgres the import adds ({len(others)}): {' '.join(others) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

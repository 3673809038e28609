"""dgres benchmark: four exact-math workloads through the public CLI entry point.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Closed loop, one client: each invocation of ``dgres.cli.main`` runs in a
fresh child process (bench/child.py), one at a time, until the next one would
end past ``--seconds``; at least two run.  Set-up is probed a few more times
in children that only import the package.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(solve_s, solve_s.tail, setup_s, peak_rss_mb, ok_ratio).  Times are wall
times scaled to the reference speed of the probe in bench/speed.py, which
samples how fast the shared machine runs while each window is timed; the
unscaled wall times are printed beside them.  With ``--trace 1``
untraced and traced invocations alternate and it carries the per-layer
metrics from bench/tracer.py.  Lines before it give the same numbers for
people, with failed_ratio, sample counts and provenance.

An invocation fails on a nonzero exit, a timeout, a report that differs byte
for byte from the run's first report (traced or not), or a report whose
seed-invariant content differs from the values frozen in bench/workloads.py.
Any failure makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import REF_PROBE_S
from workloads import WORKLOADS, Workload, check_report

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "dgres"

CHILD_TIMEOUT_S = 60.0   # Λ(a,b,c) at degree 5 takes about 230 s: that must fail, not hang
SETUP_PROBES = 15        # import-only children per run, on top of one set-up per invocation
MIN_INVOCATIONS = 2      # two reports are needed to compare them byte for byte


@dataclass
class Invocation:
    mode: str                     # "setup", "plain" or "trace"
    wall_s: float
    stats: dict = field(default_factory=dict)
    report: bytes = b""
    error: str = ""               # why it failed, "" if it did not


def spawn(workdir: Path, mode: str, argv: list[str], tag: int) -> Invocation:
    stats_path = workdir / f"stats-{tag}.json"
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), repr(t_spawn), mode, str(stats_path), *argv],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Invocation(mode, time.monotonic() - t_spawn, error=f"timeout after {CHILD_TIMEOUT_S:g} s")
    inv = Invocation(mode, time.monotonic() - t_spawn, report=out)
    try:
        inv.stats = json.loads(stats_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        tail = err.decode("utf-8", "replace").strip().splitlines()[-1:] or ["no output"]
        inv.error = f"exit {proc.returncode}, no stats: {tail[0]}"
        return inv
    if proc.returncode != 0:
        inv.error = f"exit {proc.returncode}"
    elif not Path(inv.stats["dgres_file"]).resolve().is_relative_to(SRC):
        inv.error = f"imported dgres from {inv.stats['dgres_file']}, not from {SRC}"
    return inv


def tail_value(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    That percentile lies above the median only from 21 samples on; with fewer
    the maximum is reported, and the label says which it is.
    """
    s = sorted(samples)
    n = len(s)
    if n <= 20:
        return s[-1], f"max of n={n}"
    k = n - 11
    return s[k], f"p{100 * (k + 1) / n:.1f} of n={n}, 10 beyond"


def is_time(metric: str) -> bool:
    return metric.endswith(("_s", ".s"))


def unit_of(metric: str) -> str:
    return "s" if is_time(metric) else "ratio" if metric.endswith("_ratio") else "count"


@dataclass
class RunResult:
    workload: str
    attempted: int
    failed: int
    metrics: dict          # name -> (value, unit)
    notes: list[str]       # human-readable lines
    provenance: dict


def measure(wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> RunResult:
    text, tail = wl.generate(seed)
    problem = workdir / "problem.dgres"
    problem.write_text(text, encoding="utf-8")
    argv = [wl.command, str(problem), *tail]

    probes = [spawn(workdir, "setup", [], i) for i in range(SETUP_PROBES)]
    for p in probes:
        if p.error:
            raise RuntimeError(f"set-up probe failed: {p.error}")

    modes = ("plain", "trace") if trace else ("plain",)
    invs: list[Invocation] = []
    last_wall: dict[str, float] = {}
    deadline = time.monotonic() + seconds
    while True:
        mode = modes[len(invs) % len(modes)]
        inv = spawn(workdir, mode, argv, len(probes) + len(invs))
        invs.append(inv)
        last_wall[mode] = inv.wall_s
        if inv.error.startswith("timeout"):
            break
        upcoming = modes[len(invs) % len(modes)]
        if (len(invs) >= MIN_INVOCATIONS
                and time.monotonic() + last_wall.get(upcoming, inv.wall_s) > deadline):
            break

    reference = next((i.report for i in invs if i.stats), None)
    counts_ref = None
    for inv in invs:
        if inv.error:
            continue
        if inv.report != reference:
            inv.error = f"{inv.mode} report differs from the run's first report"
            continue
        inv.error = check_report(wl, seed, inv.report.decode("utf-8"))
        if inv.error or inv.mode != "trace":
            continue
        counts = {k: v for k, v in inv.stats["trace"].items() if not is_time(k)}
        if counts_ref is None:
            counts_ref = counts
        elif counts != counts_ref:
            inv.error = "trace counts differ between traced invocations"
    failed = [i for i in invs if i.error]

    def solve_times(mode, key="scaled_s"):
        return [i.stats["solve"][key] if "solve" in i.stats else CHILD_TIMEOUT_S
                for i in invs if i.mode == mode]

    plain = solve_times("plain")
    plain_wall = solve_times("plain", "wall_s")
    notes = [f"  failed_ratio = {len(failed) / len(invs):.6g} ratio ({len(failed)} of {len(invs)} invocations)"]
    notes += [f"  FAILED {i.mode}: {i.error}" for i in failed]
    setups = [i.stats["setup"] for i in probes + invs if "setup" in i.stats]
    if trace:
        traced = [i for i in invs if i.mode == "trace" and "trace" in i.stats]
        metrics = {}
        if traced:
            for k, v in traced[0].stats["trace"].items():
                vals = [i.stats["trace"][k] for i in traced] if is_time(k) else [v]
                metrics[k] = (statistics.median(vals), unit_of(k))
            # The spans are unscaled wall time, so their base is too.
            trace_solve = statistics.median(solve_times("trace", "wall_s"))
            metrics["trace.solve_s"] = (trace_solve, "s")
            overhead = statistics.median(solve_times("trace")) / statistics.median(plain)
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            notes.append(f"  traced solve wall {trace_solve:.4f} s over n={len(traced)}, "
                         f"untraced {statistics.median(plain_wall):.4f} s over n={len(plain)}; "
                         f"overhead_ratio compares their scaled medians")
    else:
        tail_s, tail_label = tail_value(plain)
        rss = [i.stats["peak_rss_mb"] for i in invs if i.mode == "plain" and "peak_rss_mb" in i.stats]
        metrics = {
            "solve_s": (statistics.median(plain), "s"),
            "solve_s.tail": (tail_s, "s"),
            "setup_s": (statistics.median(s["scaled_s"] for s in setups), "s"),
            "peak_rss_mb": (statistics.median(rss) if rss else 0.0, "MB"),
            "ok_ratio": (1 - len(failed) / len(invs), "ratio"),
        }
        notes.append(f"  solve_s median of n={len(plain)}; solve_s.tail is the {tail_label}; "
                     f"setup_s median of n={len(setups)}")
        probe_medians = [i.stats["solve"]["probe_median_s"] for i in invs
                         if i.mode == "plain" and "solve" in i.stats]
        if probe_medians:
            notes.append(f"  unscaled wall: solve {statistics.median(plain_wall):.4f} s, "
                         f"setup {statistics.median(s['wall_s'] for s in setups):.4f} s; "
                         f"probe median {statistics.median(probe_medians) * 1e6:.1f} us "
                         f"(reference {REF_PROBE_S * 1e6:g} us)")
    dgres_file = Path(next(i.stats["dgres_file"] for i in probes + invs if "dgres_file" in i.stats)).resolve()
    provenance = {
        "dgres_file": str(dgres_file.relative_to(ROOT) if dgres_file.is_relative_to(ROOT) else dgres_file),
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "seed": seed,
        "argv": [wl.command, problem.name, *tail],
    }
    return RunResult(wl.name, len(invs), len(failed), metrics, notes, provenance)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "cli.py").is_file():
        print(f"error: the dgres sources are not at {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=BENCH / ".work"))
    results = []
    try:
        for name in names:
            print(f"workload {name} seed {args.seed} trace {args.trace}", flush=True)
            res = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), workdir)
            for metric, (value, unit) in res.metrics.items():
                print(f"  {metric} = {value:.6g} {unit}")
            print("\n".join(res.notes))
            print(f"  provenance {json.dumps(res.provenance, sort_keys=True)}", flush=True)
            results.append(res)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r.workload}/"
        for metric, (value, unit) in r.metrics.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

Takes about a minute: every workload runs once untraced and twice traced.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import speed
from workloads import WORKLOADS, check_report


@pytest.fixture
def workdir():
    (run.BENCH / ".work").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.BENCH / ".work"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_reports_match_untraced(name, workdir):
    wl = WORKLOADS[name]
    text, tail = wl.generate(0)
    problem = workdir / "problem.dgres"
    problem.write_text(text, encoding="utf-8")
    argv = [wl.command, str(problem), *tail]
    plain = run.spawn(workdir, "plain", argv, 0)
    traced = [run.spawn(workdir, "trace", argv, tag) for tag in (1, 2)]
    assert plain.error == "" and [t.error for t in traced] == ["", ""]
    assert check_report(wl, 0, plain.report.decode("utf-8")) == ""
    assert all(t.report == plain.report for t in traced)
    sums = [t.stats["trace"]["linalg.rank.sum"] for t in traced]
    assert sums[0] == sums[1]


def test_wrong_frozen_value_counts_as_failure(monkeypatch, capsys):
    wl = WORKLOADS["chain-lift"]
    wrong = dict(wl.tables, lift=["verdict Liftable", "system 293x272"])
    monkeypatch.setitem(run.WORKLOADS, wl.name, dataclasses.replace(wl, tables=wrong))
    rc = run.main(["--workload", wl.name, "--seed", "3", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2
    assert result["metrics"]["ok_ratio"]["value"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "chain-lift", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_timeout_counts_as_failure(monkeypatch, capsys):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.5)
    rc = run.main(["--workload", "polynomial-reduced-bar", "--seed", "0", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert rc != 0
    assert result["failed"] == result["attempted"] == 1


def test_speed_probe_scales_wall_time_by_its_median():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        probe.open()
        deadline = speed.perf_counter() + 0.1
        while speed.perf_counter() < deadline:
            pass
        window = probe.close()
    finally:
        probe.stop()
    assert window["probe_samples"] >= speed.BURST + 5
    assert 0.05 < window["wall_s"] < 0.1
    expected = window["wall_s"] * speed.REF_PROBE_S / window["probe_median_s"]
    assert window["scaled_s"] == pytest.approx(expected)

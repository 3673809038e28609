"""Bit-exact golden reports: any byte drift in report output fails here."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

COMMANDS = {
    "validate_e3.txt":      ["validate", "e3.dgres"],
    "validate_e3.json":     ["validate", "e3.dgres", "--format", "machine"],
    "bar_e1_classical.txt": ["bar", "e1.dgres", "--max-n", "3", "--max-degree", "5"],
    "bar_odd_base_classical_d8.txt": ["bar", "odd_base.dgres", "--max-n", "3", "--max-degree", "8"],
    "bar_e2_reduced.txt":   ["bar", "e2.dgres", "--reduced", "--max-degree", "6"],
    "bar_lam3_reduced.txt": ["bar", "lam3.dgres", "--reduced", "--max-degree", "5"],
    "bar_e2_reduced_d24.txt": ["bar", "e2.dgres", "--reduced", "--max-degree", "24"],
    "bar_lam3_reduced_d7.txt": ["bar", "lam3.dgres", "--reduced", "--max-degree", "7"],
    "semifree_e1.txt":      ["semifree", "e1.dgres", "--max-degree", "6"],
    "semifree_chain_frac.txt": ["semifree", "chain_frac.dgres", "--max-degree", "6"],
    "semifree_odd_base.txt": ["semifree", "odd_base.dgres", "--max-degree", "7"],
    "semifree_k3p.txt":     ["semifree", "k3p.dgres", "--max-degree", "8"],
    "homology_e3.txt":      ["homology", "e3.dgres", "--max-degree", "6"],
    "homology_chain_frac.txt": ["homology", "chain_frac.dgres", "--max-degree", "5"],
    "homology_odd_base.txt": ["homology", "odd_base.dgres", "--max-degree", "7"],
    "homology_k3p.txt":     ["homology", "k3p.dgres", "--max-degree", "8"],
    "semifree_f3.txt":      ["semifree", "f3.dgres", "--max-degree", "12"],
    "homology_f3.txt":      ["homology", "f3.dgres", "--max-degree", "12"],
    "lift_e2_K.txt":        ["lift", "e2.dgres", "--module", "K"],
    "lift_e1_CB.json":      ["lift", "e1.dgres", "--module", "CB", "--format", "machine"],
    "lift_frac_C.txt":      ["lift", "chain_frac.dgres", "--module", "C"],
    "lift_frac_C.json":     ["lift", "chain_frac.dgres", "--module", "C", "--format", "machine"],
    "lift_odd_D.txt":       ["lift", "odd_lift.dgres", "--module", "D"],
    "derivations_e2.txt":   ["derivations", "e2.dgres", "--max-degree", "5"],
    "derivations_k3p.txt":  ["derivations", "k3p.dgres", "--max-degree", "6"],
    # d^2 != 0 on B: windowed FAIL lines with counterexamples, exit 1
    "semifree_d_squared_nonzero.txt":  ["semifree", "../inputs/d_squared_nonzero.dgres", "--max-degree", "6"],
    "semifree_d_squared_nonzero.json": ["semifree", "../inputs/d_squared_nonzero.dgres", "--max-degree", "6",
                                        "--format", "machine"],
    "homology_d_squared_nonzero.txt":  ["homology", "../inputs/d_squared_nonzero.dgres", "--max-degree", "6"],
    "homology_d_squared_nonzero.json": ["homology", "../inputs/d_squared_nonzero.dgres", "--max-degree", "6",
                                        "--format", "machine"],
}
FAILING = {name for name in COMMANDS if "d_squared_nonzero" in name}


@pytest.mark.parametrize("fname", sorted(COMMANDS))
def test_golden_output(fname, golden_dir):
    cmd = COMMANDS[fname]
    args = [sys.executable, "-m", "dgres.cli", cmd[0], str(golden_dir / cmd[1])] + cmd[2:]
    proc = subprocess.run(args, capture_output=True)
    assert proc.returncode == (1 if fname in FAILING else 0)
    expected = (golden_dir / fname).read_bytes()
    assert proc.stdout == expected


def test_lift_ladder_writes_the_chain_goldens(golden_dir, capsys):
    # the C_K of scripts/lift_ladder.py is the rule of chain20.dgres and
    # chain40.dgres, byte for byte, and its `lift` run on C_20 reports the
    # sha256 of lift_chain20.txt
    path = Path(__file__).resolve().parent.parent / "scripts" / "lift_ladder.py"
    spec = importlib.util.spec_from_file_location("lift_ladder", path)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    for k in (20, 40):
        assert ladder.chain_text(k).encode() == (golden_dir / f"chain{k}.dgres").read_bytes()
    assert ladder.main(["20"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("lift C_20: exit 0, ")
    assert hashlib.sha256((golden_dir / "lift_chain20.txt").read_bytes()).hexdigest() in out

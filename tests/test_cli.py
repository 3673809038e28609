import gc
import subprocess
import sys
from pathlib import Path

import pytest

from dgres import cli
from dgres.cli import main
from dgres.errors import ParseError
from dgres.probfile import parse_expression, parse_problem
from test_bar import DBAR_MUTATIONS, install_dbar_mutation


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expression_parser():
    terms = parse_expression("3*x^2 - 1/2*y*e")
    assert ({"x": 2}, {"e": 1, "y": 1}) == (terms[0][1], terms[1][1])
    assert str(terms[0][0]) == "3" and str(terms[1][0]) == "-1/2"


def test_expression_parse_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_expression("x^^2", line_no=4, col_offset=0)
    assert exc.value.line == 4
    assert exc.value.column is not None


def test_problem_parse_errors():
    with pytest.raises(ParseError):
        parse_problem("field rationals\n")  # no [algebra]
    with pytest.raises(ParseError):
        parse_problem("[algebra]\next e 1\n")  # no field
    with pytest.raises(ParseError):
        parse_problem("field rationals\n[algebra]\next e 1\nd e = x^^2\n")


def test_validate_exit_codes(tmp_path, capsys, golden_dir):
    code, out, err = run_cli(["validate", str(golden_dir / "e3.dgres")], capsys)
    assert code == 0 and "verdict: PASS" in out

    bad = tmp_path / "bad.dgres"
    bad.write_text("field rationals\n\n[algebra]\nbase y 2\next e 2\nd e = y\n")
    code, out, err = run_cli(["validate", str(bad)], capsys)
    assert code == 1 and "FAIL" in out

    broken = tmp_path / "broken.dgres"
    broken.write_text("field rationals\n[algebra]\next e 1\nd e = x^^2\n")
    code, out, err = run_cli(["validate", str(broken)], capsys)
    assert code == 2 and "error" in err


def test_classical_bar_requires_cap(capsys, golden_dir):
    code, out, err = run_cli(["bar", str(golden_dir / "e1.dgres")], capsys)
    assert code == 2 and "max-n" in err


@pytest.mark.parametrize("name, cutoff", [("e3.dgres", "3"), ("e1.dgres", "1"), (None, "1")])
def test_derivations_window_without_odd_square(tmp_path, capsys, golden_dir, name, cutoff):
    # valid input whose window holds an odd generator but not its square
    path = golden_dir / name if name else tmp_path / "lam.dgres"
    if name is None:
        path.write_text("field rationals\n\n[algebra]\next a 1\next b 1\next c 1\n")
    code, out, err = run_cli(["derivations", str(path), "--max-degree", cutoff], capsys)
    assert code == 0 and "verdict: PASS" in out, err


# the least value of each window option; below it the window is empty
LEAST = {"max-degree": 0, "max-n": 1, "samples": 1}


@pytest.mark.parametrize("args", [["--reduced", "--max-degree", "-1"], ["--max-n", "-1", "--max-degree", "2"],
                                  ["--max-n", "1", "--max-degree", "-3"]])
def test_negative_window_flag_is_usage_error(capsys, golden_dir, args):
    code, out, err = run_cli(["bar", str(golden_dir / "e1.dgres")] + args, capsys)
    flag, val = next((f[2:], v) for f, v in zip(args, args[1:]) if v[1:].isdigit())
    assert code == 2 and f"{flag} must be >= {LEAST[flag]}, got {val}" in err and out == ""


@pytest.mark.parametrize("option, args", [("max-degree = -1", ["--reduced"]), ("max-n = -2", [])])
def test_negative_window_option_is_usage_error(tmp_path, capsys, golden_dir, option, args):
    path = tmp_path / "neg.dgres"
    path.write_text((golden_dir / "e1.dgres").read_text() + f"\n[options]\n{option}\n")
    code, out, err = run_cli(["bar", str(path)] + args, capsys)
    key, val = option.split(" = ")
    assert code == 2 and f"{key} must be >= {LEAST[key]}, got {val}" in err and out == ""


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command, args", [("lift", ["--module", "K"])])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_empty_sample_count_is_usage_error(tmp_path, capsys, golden_dir, value, command, args, source):
    # zero samples would print PASS over nothing
    path = tmp_path / "samples.dgres"
    text = (golden_dir / "e2.dgres").read_text()
    if source == "file":
        path.write_text(text + f"\n[options]\nsamples = {value}\n")
    else:
        path.write_text(text)
        args = args + ["--samples", value]
    code, out, err = run_cli([command, str(path), "--max-degree", "2"] + args, capsys)
    assert code == 2 and out == "" and f"samples must be >= 1, got {value}" in err


@pytest.mark.parametrize("args, flag", [
    (["derivations", "--samples", "0"], "samples"), (["derivations", "--seed", "1"], "seed"),
    (["validate", "--module", "K"], "module"), (["semifree", "--reduced"], "reduced"),
    (["homology", "--max-n", "2"], "max-n"), (["lift", "--module", "K", "--reduced"], "reduced"),
    (["bar", "--max-n", "2", "--samples", "3"], "samples"), (["bar", "--reduced", "--seed", "0"], "seed"),
    (["bar", "--reduced", "--module", "K"], "module"), (["bar", "--reduced", "--max-n", "3"], "max-n"),
])
def test_flag_the_command_does_not_read_is_usage_error(capsys, golden_dir, args, flag):
    # an unread flag would only be echoed in the options header, as if it had acted
    code, out, err = run_cli([args[0], str(golden_dir / "e2.dgres"), "--max-degree", "2"] + args[1:], capsys)
    assert code == 2 and out == "" and f"does not read --{flag}" in err


def test_option_lines_the_command_does_not_read_are_accepted(tmp_path, capsys, golden_dir):
    # one file serves many commands, so its [options] may name what one command ignores
    path = tmp_path / "opts.dgres"
    path.write_text((golden_dir / "e2.dgres").read_text() + "\n[options]\nsamples = 2\nseed = 3\nmax-n = 2\n")
    code, out, err = run_cli(["derivations", str(path), "--max-degree", "2"], capsys)
    assert code == 0 and err == "" and "file:samples=2" in out


@pytest.mark.parametrize("source", ["flag", "file"])
def test_classical_bar_max_n_zero_is_usage_error(tmp_path, capsys, golden_dir, source):
    # the classical bar checks d² = 0 only for n >= 1, so max-n 0 would pass it vacuously
    path = tmp_path / "maxn.dgres"
    text = (golden_dir / "e1.dgres").read_text()
    path.write_text(text + "\n[options]\nmax-n = 0\n" if source == "file" else text)
    args = ["--max-n", "0"] if source == "flag" else []
    code, out, err = run_cli(["bar", str(path), "--max-degree", "2"] + args, capsys)
    assert code == 2 and out == "" and "max-n must be >= 1, got 0" in err


def test_lemma_sign_check_with_no_checked_pair_fails(capsys, golden_dir):
    # the one pair sampled at seed 0 is skipped for both identities
    code, out, err = run_cli(["lift", str(golden_dir / "e2.dgres"), "--module", "K",
                              "--samples", "1", "--seed", "0"], capsys)
    lines = [line for line in out.splitlines() if "concat-sign-lemma" in line]
    assert code == 1 and len(lines) == 2 and all(line.startswith("  FAIL") for line in lines)
    assert out.count("counterexample: no sampled pair was checked") == 2


def test_lift_builds_each_beta_once(capsys, golden_dir, monkeypatch):
    # beta-chain-map, alphaN-betaN-identity and the beta table read one pass
    # over the generators, which builds each β_N once, each from δ(b_{μλ})
    # once per entry
    import dgres.modules as modules

    passes, deltas = [], []
    real_pass, real_delta = modules._beta_pass, modules.delta

    def counted_pass(N):
        passes.append([])
        for j, betas in real_pass(N):
            passes[-1].append(N.names[j])
            yield j, betas

    def counted_delta(b):
        deltas.append(b)
        return real_delta(b)

    monkeypatch.setattr(modules, "_beta_pass", counted_pass)
    monkeypatch.setattr(modules, "delta", counted_delta)
    code, out, err = run_cli(["lift", str(golden_dir / "chain20.dgres"), "--module", "C"], capsys)
    assert code == 0 and out == (golden_dir / "lift_chain20.txt").read_text()
    assert passes == [[f"f{i}" for i in range(20)]]
    N = parse_problem((golden_dir / "chain20.dgres").read_text()).modules["C"]
    assert len(deltas) == len(N.diff)


@pytest.mark.parametrize("D, failed", [(2, True), (8, False)])
def test_lambda_splitting_fails_when_no_nullspace_vector_is_checked(tmp_path, capsys, D, failed):
    # one generator of degree 5 over Λ(e): d^N has no kernel vector of word length 2 or 3 in degrees 0..2
    from dgres.modules import NO_NULLSPACE_VECTOR

    path = tmp_path / "g5.dgres"
    path.write_text("field rationals\n[algebra]\next e 1\n[module N]\ngenerator g 5\n")
    code, out, err = run_cli(["lift", str(path), "--module", "N", "--max-degree", str(D)], capsys)
    assert code == (1 if failed else 0) and err == ""
    assert [line.split()[1] for line in out.splitlines() if line.startswith("  FAIL")] == \
        (["lambda-splitting-identities"] if failed else [])
    assert out.count(f"counterexample: {NO_NULLSPACE_VECTOR}") == failed
    assert "verdict  Liftable" in out


def test_lambda_splitting_fails_when_append_one_does_not_contract(capsys, golden_dir, monkeypatch):
    # s with the wrong sign lists non-cycles, which its certificate refuses: a FAIL with exit 1, not a crash
    import dgres.modules as modules
    from dgres.modules import NOT_CONTRACTED

    real = modules.dN_homotopy
    monkeypatch.setattr(modules, "dN_homotopy", lambda t: -real(t))
    code, out, err = run_cli(["lift", str(golden_dir / "e1.dgres"), "--module", "CB"], capsys)
    assert code == 1 and err == ""
    assert [line.split()[1] for line in out.splitlines() if line.startswith("  FAIL")] == \
        ["lambda-splitting-identities"]
    assert out.count(f"counterexample: {NOT_CONTRACTED}") == 1


def test_lift_checks_fail_on_a_module_without_generators(tmp_path, capsys):
    # β_N and ρ are checked generator by generator, so with none of them nothing is checked
    from dgres.modules import NO_GENERATOR

    path = tmp_path / "empty.dgres"
    path.write_text("field rationals\n[algebra]\next e 1\n[module N]\n")
    code, out, err = run_cli(["lift", str(path), "--module", "N"], capsys)
    assert code == 1 and err == ""
    fails = [line.split()[1] for line in out.splitlines() if line.startswith("  FAIL")]
    assert fails[:4] == ["beta-chain-map", "alphaN-betaN-identity", "rho-splits-augmentation", "rho-chain-map"]
    assert out.count(f"counterexample: {NO_GENERATOR}") == 4
    assert "verdict  Liftable" in out and "system  0x0" in out


@pytest.mark.parametrize("command", ["semifree", "homology"])
def test_zero_homology_window_flag_is_usage_error(capsys, golden_dir, command):
    # homology is reported in degrees 0..D-1, so D = 0 leaves nothing to check
    code, out, err = run_cli([command, str(golden_dir / "e1.dgres"), "--max-degree", "0"], capsys)
    assert code == 2 and out == "" and "max-degree must be >= 1" in err


@pytest.mark.parametrize("command", ["semifree", "homology"])
def test_zero_homology_window_option_is_usage_error(tmp_path, capsys, golden_dir, command):
    path = tmp_path / "zero.dgres"
    path.write_text((golden_dir / "e1.dgres").read_text() + "\n[options]\nmax-degree = 0\n")
    code, out, err = run_cli([command, str(path)], capsys)
    assert code == 2 and out == "" and "max-degree must be >= 1" in err


def test_max_n_option_line_sets_classical_cap(tmp_path, capsys, golden_dir):
    path = tmp_path / "cap.dgres"
    path.write_text((golden_dir / "e1.dgres").read_text() + "\n[options]\nmax-n = 1\nmax-degree = 2\n")
    code, out, err = run_cli(["bar", str(path)], capsys)
    assert code == 0 and "[n 0..1, degrees 0..2]" in out


def test_missing_module_is_usage_error(capsys, golden_dir):
    code, out, err = run_cli(["lift", str(golden_dir / "e1.dgres")], capsys)
    assert code == 2
    code, out, err = run_cli(["lift", str(golden_dir / "e1.dgres"), "--module", "nope"], capsys)
    assert code == 2


def test_commands_pass_on_fixtures(capsys, golden_dir):
    for args in (
        ["bar", str(golden_dir / "e1.dgres"), "--max-n", "3", "--max-degree", "5"],
        ["bar", str(golden_dir / "e2.dgres"), "--reduced", "--max-degree", "6"],
        ["semifree", str(golden_dir / "e3.dgres"), "--max-degree", "6"],
        ["homology", str(golden_dir / "e3p.dgres"), "--max-degree", "6"],
        ["lift", str(golden_dir / "e1.dgres"), "--module", "CB"],
        ["lift", str(golden_dir / "e2.dgres"), "--module", "K"],
        ["derivations", str(golden_dir / "e1.dgres"), "--max-degree", "5"],
    ):
        code, out, err = run_cli(args, capsys)
        assert code == 0, (args, out, err)
        assert "verdict: PASS" in out


def test_reports_are_deterministic(capsys, golden_dir):
    for fmt in ("text", "machine"):
        args = ["semifree", str(golden_dir / "e1.dgres"), "--max-degree", "5", "--format", fmt]
        _, out1, _ = run_cli(args, capsys)
        _, out2, _ = run_cli(args, capsys)
        assert out1.encode() == out2.encode()


def test_machine_format_is_json(capsys, golden_dir):
    import json

    code, out, err = run_cli(
        ["validate", str(golden_dir / "e2.dgres"), "--format", "machine"], capsys
    )
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["command"] == "validate"
    assert "input_sha256" in payload


def test_console_script_entry_point(golden_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "dgres.cli", "validate", str(golden_dir / "e3.dgres")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "verdict: PASS" in proc.stdout


_IMPORT_DIFF_SCRIPT = """
import sys
before = set(sys.modules)
import dgres.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_path_loads_no_unused_stdlib():
    # every run pays for what `import dgres.cli` loads; the record classes need
    # no dataclasses (nor its inspect), and only --format machine needs json.
    # Diffing against the modules loaded before the import keeps a site hook
    # that preloads one of them from deciding the test.  Under -S no site hook
    # loads typing either, so the import itself must not (Generator is a
    # collections.namedtuple).
    import os

    src = str(Path(__file__).resolve().parent.parent / "src")
    unused = {"dataclasses", "inspect", "json"}
    for flags, banned in (([], unused), (["-S"], unused | {"typing"})):
        proc = subprocess.run([sys.executable, *flags, "-c", _IMPORT_DIFF_SCRIPT],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True)
        added = set(proc.stdout.split())
        assert "dgres.cli" in added, flags
        assert not added & banned, (flags, sorted(added & banned))


def test_lift_certificate_is_verified(golden_dir, capsys, monkeypatch):
    import dgres.cli as cli

    solve = cli.naive_lift_solve
    args = ["lift", str(golden_dir / "e2.dgres"), "--module", "K"]

    def tampered(N):
        res = solve(N)
        lam = res.certificate.row_combination
        k = max(lam)
        lam[k] = lam[k] + lam[k]
        return res

    monkeypatch.setattr(cli, "naive_lift_solve", tampered)
    code, out, err = run_cli(args, capsys)
    assert code == 1 and "FAIL  infeasibility-certificate" in out and "lambda^T A = 0" in out

    def missing(N):
        res = solve(N)
        res.certificate = None
        return res

    monkeypatch.setattr(cli, "naive_lift_solve", missing)
    code, out, err = run_cli(args, capsys)
    assert code == 1 and "solver returned no certificate" in out and "table certificate" not in out


def test_semifree_fails_with_unsigned_internal_differential(golden_dir, capsys, monkeypatch):
    import dgres.semifree as semifree
    from dgres.semifree import BBElement
    from dgres.tensor import tensor_differential

    def unsigned_dBB(t):
        # ∂ without the (-1)^n of component n
        return BBElement(t.alg, {n: tensor_differential(te) for n, te in t.components.items()})

    args = ["semifree", str(golden_dir / "e3.dgres"), "--max-degree", "8"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and "PASS  anticommutation" in out
    monkeypatch.setattr(semifree, "dBB", unsigned_dBB)
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert "FAIL  anticommutation" in out and "FAIL  DD-squared-zero" in out


@pytest.mark.parametrize("command, failed", [
    ("semifree", ["algebra:diff-degree[v]", "algebra:d-squared-zero", "DD-squared-zero", "alpha-chain-map",
                  "quasi-isomorphism"]),
    ("homology", ["algebra:diff-degree[v]", "algebra:d-squared-zero", "homology-dimensions-match"]),
])
def test_d_squared_nonzero_fails_with_exit_1(capsys, command, failed):
    # H(B) is undefined when d^B is no differential: FAIL lines, not an error
    path = Path(__file__).parent / "inputs" / "d_squared_nonzero.dgres"
    for D in ("3", "6", "9"):
        code, out, err = run_cli([command, str(path), "--max-degree", D], capsys)
        assert code == 1 and err == ""
        for name in failed:
            assert f"FAIL  {name}" in out, (D, name)
        assert "table H(B):" not in out


@pytest.mark.parametrize("name, command, failed", [
    ("base_not_closed", "semifree", ["algebra:base-closure[a]"]),
    ("base_not_closed", "homology", ["algebra:base-closure[a]"]),
    ("base_d_squared", "semifree", ["algebra:d-squared-zero", "DD-squared-zero", "quasi-isomorphism"]),
    ("base_d_squared", "homology", ["algebra:d-squared-zero", "homology-dimensions-match"]),
])
def test_semifree_and_homology_validate_the_algebra(capsys, name, command, failed):
    # an input that is no DG algebra over a DG subalgebra A gets its
    # algebra:* lines and exit 1 from both commands
    path = Path(__file__).parent / "inputs" / f"{name}.dgres"
    for D in ("3", "6", "9"):
        code, out, err = run_cli([command, str(path), "--max-degree", D], capsys)
        assert code == 1 and err == ""
        for check in failed:
            assert f"FAIL  {check}" in out, (D, check)


def test_lift_reports_invalid_module(tmp_path, capsys):
    src = tmp_path / "bad_module.dgres"
    src.write_text("field rationals\n\n[algebra]\next a 1\next b 1\n\n"
                   "[module M]\ngenerator f0 0\ngenerator f1 3\nentry f1 f0 = a\n")
    code, out, err = run_cli(["lift", str(src), "--module", "M"], capsys)
    assert code == 1 and err == ""
    assert "FAIL  module[M]:entry-degrees" in out and "(f0,f1): degrees [1] != 2" in out
    assert "beta-chain-map" not in out and "table lift" not in out
    assert "verdict: FAIL" in out


@pytest.mark.parametrize("text, line", [
    ("field rationals\nfield prime 7\n[algebra]\next e 1\n", 2),
    ("field rationals\n[algebra]\next e 1\n\n[algebra]\next f 1\n", 5),
])
def test_duplicate_field_or_algebra_is_parse_error(tmp_path, capsys, text, line):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.column) == (line, 1)
    src = tmp_path / "dup.dgres"
    src.write_text(text)
    code, out, err = run_cli(["validate", str(src)], capsys)
    assert code == 2 and f"at line {line}, column 1" in err


@pytest.mark.parametrize("text, line", [
    ("field rationals\n[algebra]\next e 1\n\n[options]\nmax-degree = 3\nmax_degree = 4\n", 7),
    ("field rationals\n[algebra]\next e 1\n[options]\nthreads = 2\n", 5),
])
def test_unknown_option_key_is_parse_error(tmp_path, capsys, text, line):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.column) == (line, 1)
    src = tmp_path / "opt.dgres"
    src.write_text(text)
    code, out, err = run_cli(["semifree", str(src)], capsys)
    assert code == 2 and out == "" and f"at line {line}, column 1" in err and "unknown option" in err
    good = parse_problem(text.replace("max_degree", "max-n").replace("threads", "seed"))
    assert set(good.options) <= {"max-degree", "max-n", "samples", "seed"}


def _flip_second_bar_term(monkeypatch):
    """Give (bm·w_1) ⊗ δ(w_2)... a plus sign in the closed form of 𝔻."""
    import dgres.homology as homology

    real = homology.dd_column

    def flipped(alg, label):
        n = label[0]
        return {key: alg.field.neg(c) if key[0] == n - 1 and key[1][1] == alg.one_mono else c
                for key, c in real(alg, label).items()}

    monkeypatch.setattr(homology, "dd_column", flipped)


def test_semifree_fails_on_a_flipped_closed_form_sign(golden_dir, capsys, monkeypatch):
    args = ["semifree", str(golden_dir / "e3.dgres"), "--max-degree", "6"]
    code, out, err = run_cli(args, capsys)
    assert code == 0
    _flip_second_bar_term(monkeypatch)
    code, out, err = run_cli(args, capsys)
    assert code == 1 and err == ""
    for name in ("DD-squared-zero", "anticommutation", "alpha-chain-map", "quasi-isomorphism"):
        assert f"FAIL  {name}" in out, name


def _alpha_off_prefix_one(monkeypatch, change):
    """Give α on the labels (0, (b, m, ())) with b != 1 the column change(alg, column).

    Both closed forms of such a column change alike, `pi_column` and the
    prefix lemma (`prefix_image`), so the column check still passes.
    """
    import dgres.homology as homology

    real_pi, real_prefix = homology.pi_column, homology.prefix_image

    def pi_column(alg, lb):
        col = real_pi(alg, lb)
        return col if lb[0] == alg.one_mono else change(alg, col)

    def prefix_image(alg, label, *cols):
        dd, al = real_prefix(alg, label, *cols)
        return dd, al if label[0] else change(alg, al)

    monkeypatch.setattr(homology, "pi_column", pi_column)
    monkeypatch.setattr(homology, "prefix_image", prefix_image)


def _fails_on_alpha_off_prefix_one(golden_dir, capsys, monkeypatch, name, change):
    from dgres.homology import BAD_COLUMNS

    args = ["semifree", str(golden_dir / f"{name}.dgres"), "--max-degree", "8"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and "PASS  alpha-chain-map" in out
    _alpha_off_prefix_one(monkeypatch, change)
    code, out, err = run_cli(args, capsys)
    assert code == 1 and err == "" and BAD_COLUMNS not in out
    assert "FAIL  alpha-chain-map" in out and "FAIL  quasi-isomorphism" in out


def test_semifree_fails_on_an_unsigned_alpha_matrix(golden_dir, capsys, monkeypatch):
    # α(0, (b, m, ())) = ±b·m: over Λ(a,b) the mono_mul sign of b·a is -1;
    # dropped on the labels with b != 1, the rows of the prefix-1 columns
    # that α∘𝔻 = d^B∘α reads
    _fails_on_alpha_off_prefix_one(golden_dir, capsys, monkeypatch, "chain_frac",
                                   lambda alg, col: {m: alg.field.one for m in col})


def test_semifree_fails_on_an_alpha_matrix_wrong_off_prefix_one(golden_dir, capsys, monkeypatch):
    # α negated on the columns (0, (b, m, ())) with b != 1 only, which no
    # flat α is computed for
    _fails_on_alpha_off_prefix_one(golden_dir, capsys, monkeypatch, "e3",
                                   lambda alg, col: {m: alg.field.neg(c) for m, c in col.items()})


@pytest.mark.parametrize("command, failed", [("semifree", "quasi-isomorphism"),
                                             ("homology", "homology-dimensions-match")])
def test_report_fails_on_a_flipped_closed_form_without_the_column_check(golden_dir, capsys, monkeypatch,
                                                                       command, failed):
    # a wrong 𝔻 let through the column check still breaks 𝔻² = 0, α∘𝔻 = d^B∘α
    # or the homotopy identity: the flat 𝔻v and the tail lemma that the
    # columns are compared with read the flipped closed form too, and the
    # prefix lemma agrees with it on its own
    import dgres.homology as homology
    from dgres.homology import BAD_COLUMNS
    from dgres.semifree import BBElement, bb_basis_element
    from oracles import bb_coords

    _flip_second_bar_term(monkeypatch)
    flipped = homology.dd_column

    def flat_dd(v):
        (label,) = bb_coords(v)
        out = BBElement(v.alg)
        for row, c in flipped(v.alg, label).items():
            out = out + bb_basis_element(v.alg, row).scale(c)
        return out

    monkeypatch.setattr(homology, "DD", flat_dd)
    monkeypatch.setattr(homology, "tail_image", lambda alg, label, *cols: flipped(alg, label))
    code, out, err = run_cli([command, str(golden_dir / "e3.dgres"), "--max-degree", "6"], capsys)
    assert code == 1 and err == "" and BAD_COLUMNS not in out
    assert f"FAIL  {failed}" in out
    if command == "semifree":
        assert "FAIL  DD-squared-zero" in out or "FAIL  alpha-chain-map" in out


def _count_ranks(monkeypatch) -> list:
    """Record every matrix whose rank is taken."""
    from dgres.linalg import SliceMatrix

    ranked = []
    real = SliceMatrix.rank
    monkeypatch.setattr(SliceMatrix, "rank", lambda M: ranked.append(M) or real(M))
    return ranked


def test_semifree_skips_quasi_iso_ranks_after_a_failed_column_check(golden_dir, capsys, monkeypatch):
    from dgres.homology import BAD_COLUMNS

    ranked = _count_ranks(monkeypatch)
    args = ["semifree", str(golden_dir / "e3.dgres"), "--max-degree", "6"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and ranked
    ranked.clear()
    _flip_second_bar_term(monkeypatch)
    code, out, err = run_cli(args, capsys)
    assert code == 1 and err == "" and ranked == []
    lines = out.splitlines()
    k = lines.index("  FAIL  quasi-isomorphism                [degrees 0..5 (built through 6)]")
    assert lines[k + 1] == f"        counterexample: {BAD_COLUMNS}"
    assert "table homology" not in out


@pytest.mark.parametrize("command", [["bar", "--reduced", "--max-degree", "5"],
                                     ["semifree", "--max-degree", "7"], ["homology", "--max-degree", "7"]])
def test_pass_path_ranks_only_d_B(golden_dir, capsys, monkeypatch, command):
    # the reduced bar and (𝔹, 𝔻) are contracted by the label homotopy, never
    # ranked; the columns of d^B, the only slices ranked, are B monomials
    from dgres.algebra import Monomial

    ranked = _count_ranks(monkeypatch)
    code, out, err = run_cli(command[:1] + [str(golden_dir / "odd_base.dgres")] + command[1:], capsys)
    assert code == 0
    assert all(isinstance(lb, Monomial) for M in ranked for lb in M.col_labels)
    assert bool(ranked) == (command[0] != "bar")


def test_homology_fails_on_a_flipped_closed_form_sign(golden_dir, capsys, monkeypatch):
    args = ["homology", str(golden_dir / "e3.dgres"), "--max-degree", "6"]
    code, out, err = run_cli(args, capsys)
    assert code == 0 and "PASS  homology-dimensions-match" in out
    _flip_second_bar_term(monkeypatch)
    code, out, err = run_cli(args, capsys)
    assert code == 1 and err == "" and "FAIL  homology-dimensions-match" in out


@pytest.mark.parametrize("mutation", sorted(DBAR_MUTATIONS))
@pytest.mark.parametrize("command, failed, dropped", [
    (["bar", "--reduced", "--max-degree", "4"],
     ["reduced:reduced-exactness@deg0", "reduced:reduced-exactness@deg4", "reduced-d-squared-zero"], None),
    (["homology", "--max-degree", "5"], ["reduced-bar-acyclic"], "table H(reduced bar, augmented)"),
])
def test_wrong_reduced_closed_form_fails(tmp_path, capsys, monkeypatch, mutation, command, failed, dropped):
    # the shared closed form of d̄ and 𝔇, or the helper appending its tails, made wrong where both look it up
    from dgres.cli import BAD_REDUCED_COLUMNS

    path = tmp_path / "lam.dgres"
    path.write_text("field rationals\n\n[algebra]\next a 1\next b 1\next c 1\n")
    args = command[:1] + [str(path)] + command[1:]
    install_dbar_mutation(monkeypatch, mutation)
    code, out, err = run_cli(args, capsys)
    assert code == 1 and err == ""
    for name in failed:
        assert f"FAIL  {name}" in out, name
    assert BAD_REDUCED_COLUMNS in out
    assert dropped is None or dropped not in out


def _h_signed(real):
    # h with the sign (-1)^n of the word length of its label
    def mutated(alg, label):
        return {lb: alg.field.neg(c) if len(label[2]) % 2 else c for lb, c in real(alg, label).items()}
    return mutated


def _h_drops_words(real):
    # h zero on the labels with n >= 1
    def mutated(alg, label):
        return {} if label[2] else real(alg, label)
    return mutated


# wrong versions of the contracting homotopy: (name, mutation of the real
# function, the first degree at which the reduced bar identity fails), each
# patched where the one certificate of the reduced bar and of 𝔹 looks it up
HOMOTOPY_MUTATIONS = {
    # from degree 2, the first with a label (b, m, (w,)) with m != 1
    "h-signed": ("homotopy", _h_signed, 2),
    "h-drops-words": ("homotopy", _h_drops_words, 2),
    # h(b, m, ws) = (b, m, (m,) + ws), a label of too high a degree, from degree 1
    "h-outside": ("homotopy", lambda real: lambda alg, label: {} if label[1] == alg.one_mono else
                  {(label[0], label[1], (label[1],) + label[2]): alg.field.one}, 1),
    # 𝔻h + h𝔻 = id without the σα term, and πσ = 0 on B in every degree
    "no-sigma-alpha": ("section", lambda real: lambda alg, b: {}, 0),
}


@pytest.mark.parametrize("mutation", sorted(HOMOTOPY_MUTATIONS))
@pytest.mark.parametrize("command", ["bar", "semifree", "homology"])
def test_wrong_homotopy_fails(golden_dir, capsys, monkeypatch, mutation, command):
    # each mutation fails every check that reads the identity it breaks, and
    # nothing else
    import dgres.homology as homology

    name, mutate, first = HOMOTOPY_MUTATIONS[mutation]
    monkeypatch.setattr(homology, name, mutate(getattr(homology, name)))
    args = [command, str(golden_dir / "odd_base.dgres"), "--max-degree", "5"]
    args += ["--reduced"] if command == "bar" else []
    failed = {
        "bar": [f"reduced:reduced-exactness@deg{d}" for d in range(first, 6)],
        "semifree": ["quasi-isomorphism"],
        "homology": ["homology-dimensions-match", "reduced-bar-acyclic"],
    }[command]
    code, out, err = run_cli(args, capsys)
    assert code == 1 and err == ""
    assert sorted(line.split()[1] for line in out.splitlines() if line.startswith("  FAIL")) == sorted(failed)
    assert out.count("counterexample: the contracting homotopy identity fails at ") == len(failed)


def test_homotopy_wrong_at_one_head_fails_at_the_labels_of_every_slice(tmp_path, capsys, monkeypatch):
    # a wrong head on B = Λ(g) ⊗ Q[x], |g| = 1, |x| = 2: h(b, m0, ()) gets d̄(b·g·y) added, y the
    # first prefix-1 label of C_2 with d̄(g·y) != 0 and |m0| = 1 + |y|, and h(b, m0, ws) is that
    # column with ws appended; h stays left B-linear.  The identity fails at (1, 1, (m0,)) in C_1,
    # where the defect has prefix g, so g·(1, 1, (m0,)) does not fail: one degree up only its tail
    # (1, 1, (m0, g)) in C_2 fails, which the tail lemma names.  Every degree names the first bad
    # label that the identity multiplied out on every slice names
    import dgres.homology as homology
    from dgres.semifree import append_tail, dbar_column, defect_details
    from dgres.tensor import prefixed_basis_labels
    from oracles import reduced_full_checks

    path = tmp_path / "gx.dgres"
    path.write_text("field rationals\n[algebra]\next g 1\next x 2\n")
    alg = parse_problem(path.read_text()).algebra
    f, one, g = alg.field, alg.one_mono, alg.mono({"g": 1})
    y = next(lb for d in range(2, 6) for lb in prefixed_basis_labels(alg, 2, d)
             if lb[0] == one and dbar_column(alg, (g,) + lb[1:]))
    m0 = alg.basis("W", 1 + y[1].degree + sum(w.degree for w in y[2]))[0]
    real = homology.homotopy

    def mutated(alg, label):
        out = dict(real(alg, label))
        sm = alg.mono_mul(label[0], g)
        if label[1] == m0 and sm is not None:
            for key, c in append_tail(dbar_column(alg, (sm[1],) + y[1:]), label[2]).items():
                out[key] = f.add(out.get(key, f.zero), c if sm[0] > 0 else f.neg(c))
        return {key: c for key, c in out.items() if c != f.zero}

    square, firsts = reduced_full_checks(alg, 5, homotopy=mutated)
    expected = [(f"reduced:reduced-exactness@deg{d}", f"counterexample: {defect_details(alg, lb)}")
                for d, lb in enumerate(firsts) if lb is not None]
    bad = [lb for lb in firsts if lb is not None]
    assert square and bad[:2] == [(one, one, (m0,)), (one, one, (m0, g))]
    monkeypatch.setattr(homology, "homotopy", mutated)
    code, out, err = run_cli(["bar", str(path), "--reduced", "--max-degree", "5"], capsys)
    lines = out.splitlines()
    failed = [(line.split()[1], lines[k + 1].strip()) for k, line in enumerate(lines) if line.startswith("  FAIL")]
    assert code == 1 and err == "" and failed == expected


@pytest.mark.parametrize("command", [["bar", "--reduced", "--max-degree", "6"], ["homology", "--max-degree", "8"]])
def test_reduced_bar_keeps_no_slice_or_label_list_from_n3(golden_dir, capsys, monkeypatch, command):
    # the reduced bar certificate is one pass of `homology.certify_contraction`
    # over the degrees 0..D (D - 1 under homology), on B with d forgotten: it
    # lists the labels of n = 0, 1, 2 of each degree once and no label with
    # n >= 3, and no verdict of it is left in the input algebra's tables
    # (Λ(a,b,c) has labels with n >= 3 from degree 3)
    import dgres.bar as bar
    import dgres.cli as cli
    import dgres.homology as homology
    import dgres.probfile as probfile

    seen, made, lists, slices = [], [], [], []
    real = probfile.parse_problem
    monkeypatch.setattr(probfile, "parse_problem", lambda text: seen.append(real(text)) or seen[-1])
    real_lists = homology.prefix_one_labels
    monkeypatch.setattr(homology, "prefix_one_labels",
                        lambda alg, n, degree: lists.append((alg, n, degree)) or real_lists(alg, n, degree))
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("dgres.") and hasattr(mod, "prefixed_basis_labels"):
            monkeypatch.setattr(mod, "prefixed_basis_labels", lambda alg, n, degree: slices.append(n) or ())
    certify = bar.certify_reduced_bar
    for mod in (bar, cli):
        monkeypatch.setattr(mod, "certify_reduced_bar", lambda alg, D: made.append(certify(alg, D)) or made[-1])
    code, out, err = run_cli(command[:1] + [str(golden_dir / "lam3.dgres")] + command[1:], capsys)
    assert code == 0 and err == "" and slices == []
    alg = seen[0].algebra
    top = int(command[-1]) - (command[0] == "homology")
    assert sorted((n, d) for a, n, d in lists if a is not alg) == [(n, d) for n in (0, 1, 2) for d in range(top + 1)]
    cached = {id(value) for table in alg._memo_tables.values() for value in table.values()}
    assert not cached & {id(x) for x in made if x}  # the empty tuple is one object, cached or not


def test_semifree_keeps_no_full_basis(golden_dir, capsys, monkeypatch):
    # (𝔹, 𝔻) is certified on its B-basis: past the frakD-T-linearity window
    # (total degree 5) no full label list is listed, and no matrix on 𝔹
    # labels (n, λ) is cached: the certificate reads the columns one by one,
    # and only the d^B slices stay, for their ranks
    import dgres.probfile as probfile
    from dgres.algebra import Monomial
    from dgres.linalg import SliceMatrix

    seen = []
    real = probfile.parse_problem
    monkeypatch.setattr(probfile, "parse_problem", lambda text: seen.append(real(text)) or seen[-1])
    for command in ("semifree", "homology"):
        code, out, err = run_cli([command, str(golden_dir / "k3p.dgres"), "--max-degree", "10"], capsys)
        assert code == 0 and err == ""
        alg = seen[-1].algebra
        caches = alg._memo_tables
        assert all(t <= 5 for t in caches.get("bb_basis", ()))  # a table is made on first use
        matrices = [M for cache in caches.values() for M in cache.values() if isinstance(M, SliceMatrix)]
        assert matrices and all(isinstance(lb, Monomial) for M in matrices for lb in M.col_labels)


E5 = "field rationals\n[algebra]\nbase x 2\next e 5\nd e = x^2\n"


@pytest.mark.parametrize("text, args", [
    ("field rationals\n[algebra]\nbase y 2\n", ["--max-degree", "6"]),
    (None, ["--max-degree", "1"]),
    (E5, ["--max-degree", "5"]),
], ids=["no-ext", "k3p-d1", "e5-d5"])
def test_semifree_fails_an_empty_T_linearity_window(tmp_path, golden_dir, capsys, text, args):
    # the first label of word length >= 1, (1, (1, 1, (e,))), has total degree
    # 1 + |e|: with no ext generator, or D below it, the check has nothing to
    # evaluate, so it fails and names the empty window
    path = golden_dir / "k3p.dgres"
    if text is not None:
        path = tmp_path / "in.dgres"
        path.write_text(text)
    code, out, err = run_cli(["semifree", str(path)] + args, capsys)
    assert code == 1 and err == ""
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("  FAIL")]
    # at D = 1 no product of 𝔻 is read either (test_semifree_fails_the_products_of_an_empty_window)
    assert failed == (["DD-squared-zero", "anticommutation"] if args[-1] == "1" else []) + ["frakD-T-linearity"]
    assert "counterexample: the window holds no label of word length >= 1, so nothing was checked" in out


@pytest.mark.parametrize("D", [1, 2])
def test_semifree_fails_the_products_of_an_empty_window(tmp_path, capsys, D):
    # 𝔻² = 0 and 𝔇∂ + ∂𝔇 = 0 are read on the products 𝔻_{t-1}∘𝔻_t with t = 2..D: at D = 1 there is
    # none, so both fail and say so; α∘𝔻 = d^B∘α (t = 1..D) and the quasi-isomorphism, which rests
    # on the homotopy identity in degree 0, are read and pass.  frakD-T-linearity needs D >= 1 + |e|
    from dgres.cli import NO_PRODUCT

    path = tmp_path / "e1.dgres"
    path.write_text("field rationals\n[algebra]\next e 1\n")
    code, out, err = run_cli(["semifree", str(path), "--max-degree", str(D)], capsys)
    failed = ["DD-squared-zero", "anticommutation", "frakD-T-linearity"] if D < 2 else []
    assert code == (1 if failed else 0) and err == ""
    assert [line.split()[1] for line in out.splitlines() if line.startswith("  FAIL")] == failed
    assert out.count(f"counterexample: {NO_PRODUCT}") == (2 if failed else 0)
    assert "PASS  alpha-chain-map" in out and "PASS  quasi-isomorphism" in out and "table homology:" in out


@pytest.mark.parametrize("fname, D, empty", [("e2.dgres", 3, True), ("e2.dgres", 4, False),
                                           ("lam3.dgres", 1, True), ("lam3.dgres", 2, False)])
def test_reduced_bar_fails_d_squared_zero_in_a_window_without_two_factor_labels(golden_dir, capsys, fname, D, empty):
    # d̄² = 0 is read on the products d̄_1∘d̄_2: a label with two δ-factors has degree >= 2|x| = 4 on
    # Q[x] and >= 2 on Λ(a,b,c), so below that the line has nothing to check, fails and says so;
    # every exactness line rests on the homotopy identities and still passes
    from dgres.bar import NO_TWO_FACTOR_LABEL

    code, out, err = run_cli(["bar", str(golden_dir / fname), "--reduced", "--max-degree", str(D)], capsys)
    assert code == (1 if empty else 0) and err == ""
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("  FAIL")]
    assert failed == (["reduced-d-squared-zero"] if empty else [])
    assert out.count(f"counterexample: {NO_TWO_FACTOR_LABEL}") == (1 if empty else 0)
    assert out.count("PASS  reduced:reduced-exactness@deg") == D + 1


def test_semifree_T_linearity_window_reaches_the_first_ext_label(tmp_path, capsys):
    # |e| = 5: no label of word length >= 1 has total degree <= 5, so the
    # window runs to 1 + |e| = 6 and the check passes on a valid algebra
    path = tmp_path / "e5.dgres"
    path.write_text(E5)
    code, out, err = run_cli(["semifree", str(path), "--max-degree", "8"], capsys)
    assert code == 0 and err == ""
    assert "total degrees 0..6, word length >= 1" in out


def test_derivations_fail_when_no_sample_is_checked(tmp_path, capsys):
    # no ext generator: both bases are empty, so no round trip and no
    # corrupted derivation can be checked
    from dgres.bar import EMPTY_BASIS

    path = tmp_path / "noext.dgres"
    path.write_text("field rationals\n[algebra]\nbase y 2\n")
    code, out, err = run_cli(["derivations", str(path), "--max-degree", "4"], capsys)
    assert code == 1 and err == ""
    lines = out.splitlines()
    failed = [(line.split()[1], lines[k + 1].strip()) for k, line in enumerate(lines) if line.startswith("  FAIL")]
    assert failed == [(name, f"counterexample: {EMPTY_BASIS}") for name in
                      ("eta-of-eta-inverse-identity", "eta-inverse-of-eta-identity", "corrupted-derivation-rejected")]
    assert "PASS  derivation-hom-dim-match" in out


@pytest.mark.parametrize("command, lines", [
    ("semifree", ["DD-squared-zero", "anticommutation", "alpha-chain-map", "quasi-isomorphism"]),
    ("homology", ["homology-dimensions-match", "reduced-bar-acyclic"]),
])
def test_invalid_algebra_gets_no_certificate(capsys, monkeypatch, command, lines):
    # d a = e leaves A: every line that rests on a certificate fails with one
    # text, no table is printed, and no certificate runs
    import dgres.cli as cli

    def refuse(*args):
        raise AssertionError("a certificate ran on an invalid algebra")

    for name in ("quasi_iso_check", "certify_reduced_bar", "homology_dims"):
        monkeypatch.setattr(cli, name, refuse)
    path = Path(__file__).parent / "inputs" / "base_not_closed.dgres"
    code, out, err = run_cli([command, str(path), "--max-degree", "6"], capsys)
    assert code == 1 and err == ""
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("  FAIL")]
    assert failed == ["algebra:base-closure[a]"] + lines
    assert out.count(f"counterexample: {cli.INVALID_ALGEBRA}") == len(lines)
    assert "table" not in out


@pytest.mark.parametrize("entry, column", [("entry f1 g0 = a", 12), ("entry  g1 f0 = a", 10)])
def test_unknown_entry_generator_has_position(tmp_path, capsys, entry, column):
    text = ("field rationals\n\n[algebra]\next a 1\n\n[module M]\n"
            f"generator f0 0\n  {entry}\ngenerator f1 2\n")
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.column) == (8, column)
    src = tmp_path / "entry.dgres"
    src.write_text(text)
    code, out, err = run_cli(["validate", str(src)], capsys)
    assert code == 2 and out == "" and f"at line 8, column {column}" in err and "unknown generator" in err


@pytest.mark.parametrize("text, line, column, message", [
    ("field prime 8\n[algebra]\next e 1\n", 1, 13, "modulus 8 is not a prime"),
    ("  field  prime   1   # the modulus\n[algebra]\next e 1\n", 1, 18, "modulus 1 is not a prime"),
    ("field prime 7\n[algebra]\nbase x 2\next e 3\nd e = x - 1/7*x\n", 5, 11, "denominator 7 not invertible mod 7"),
    ("field prime 7\n[algebra]\next a 1\n[module M]\ngenerator f0 0\ngenerator f1 2\n"
     "entry f1 f0 = a + 2/14*a\n", 7, 19, "denominator 7 not invertible mod 7"),
])
def test_scalar_field_errors_have_position(tmp_path, capsys, text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.column) == (line, column) and message in str(exc.value)
    src = tmp_path / "field.dgres"
    src.write_text(text)
    code, out, err = run_cli(["validate", str(src)], capsys)
    assert code == 2 and out == "" and f"at line {line}, column {column}" in err and message in err


ALG = "field rationals\n[algebra]\next a 1\n"
MOD = ALG + "[module M]\ngenerator f0 0\ngenerator f1 2\n"


@pytest.mark.parametrize("text, line, column, message", [
    (ALG + "base a 2\n", 4, 6, "duplicate generator 'a'"),
    (MOD + "generator  f0 4\n", 7, 12, "module M: duplicate generator 'f0'"),
    (MOD + "entry f0 f1 = a\n", 7, 7, "entry f0 f1 breaks strict triangularity"),
    (ALG + "d z = a\n", 4, 3, "differential given for unknown generator 'z'"),
    (ALG + "d a = b\n", 4, 7, "unknown generator 'b'"),
    (MOD + "entry f1 f0 = 2*zz\n", 7, 17, "unknown generator 'zz'"),
    (ALG + "ext e 3\nd e = 2*a^2\n", 5, 9, "odd generator a cannot have exponent 2"),
    (ALG + "ext e 3\nd e = a*a\n", 5, 9, "odd generator a cannot have exponent 2"),
    (ALG + "ext  b 0\n", 4, 8, "generator b has degree 0"),
    (ALG + "base y 2\next e 3\nd e = y\n d e = 2*y\n", 7, 4, "repeated differential of 'e'"),
    (MOD + "entry f1 f0 = a\nentry f1 f0 = 2*a\n", 8, 7, "module M: repeated entry f1 f0"),
    (ALG + "[options]\nseed = 1\n  seed = 2\n", 6, 3, "repeated option 'seed'"),
    (ALG + "ext e 2\nd e = 2*a - 3/00*a\n", 5, 13, "zero denominator in '3/00'"),
], ids=["duplicate-generator", "duplicate-module-generator", "triangularity", "d-of-unknown",
        "unknown-in-d", "unknown-in-entry", "odd-power", "odd-square", "degree-0", "repeated-d",
        "repeated-entry", "repeated-option", "zero-denominator"])
def test_semantic_errors_have_position(tmp_path, capsys, text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.column) == (line, column) and message in str(exc.value)
    src = tmp_path / "semantic.dgres"
    src.write_text(text)
    code, out, err = run_cli(["validate", str(src)], capsys)
    assert code == 2 and out == "" and f"at line {line}, column {column}" in err and message in err


def test_names_may_be_declared_after_use():
    problem = parse_problem("field rationals\n[algebra]\nd e = y\nbase y 2\next e 3\n"
                            "[module M]\nentry f1 f0 = e\ngenerator f0 0\ngenerator f1 4\n")
    alg = problem.algebra
    assert alg.d(alg.gen("e")) == alg.gen("y")
    assert problem.modules["M"].diff[0, 1] == alg.gen("e")


CALLER_THRESHOLDS = (1234, 5, 6)  # neither CPython's default nor cli.GC_THRESHOLDS


@pytest.fixture
def caller_gc():
    """A caller with its own collector thresholds; the test's settings come back afterwards."""
    saved, enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(*CALLER_THRESHOLDS)
    try:
        yield
    finally:
        gc.set_threshold(*saved)
        (gc.enable if enabled else gc.disable)()


def _bad_validate(tmp_path, golden_dir):
    bad = tmp_path / "bad.dgres"
    bad.write_text("field rationals\n\n[algebra]\nbase y 2\next e 2\nd e = y\n")
    return ["validate", str(bad)]


@pytest.mark.parametrize("argv, code", [
    (lambda tmp, gold: ["validate", str(gold / "e3.dgres")], 0),
    (_bad_validate, 1),
    (lambda tmp, gold: ["nocommand", str(gold / "e3.dgres")], 2),
    (lambda tmp, gold: ["bar", str(gold / "e1.dgres")], 2),
    (lambda tmp, gold: ["validate", str(tmp / "missing.dgres")], 2),
], ids=["exit-0", "exit-1", "argparse", "usage-error", "missing-file"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(caller_gc, tmp_path, golden_dir, capsys, argv, code, enabled):
    if not enabled:
        gc.disable()
    assert main(argv(tmp_path, golden_dir)) == code
    assert gc.get_threshold() == CALLER_THRESHOLDS and gc.isenabled() == enabled


def test_main_restores_the_collector_when_a_command_raises(caller_gc, golden_dir, monkeypatch):
    def broken(args, problem):
        raise RuntimeError("broken command")

    monkeypatch.setitem(cli.COMMANDS, "validate", broken)
    with pytest.raises(RuntimeError, match="broken command"):
        main(["validate", str(golden_dir / "e3.dgres")])
    assert gc.get_threshold() == CALLER_THRESHOLDS and gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_commands_run_under_the_raised_thresholds(caller_gc, golden_dir, capsys, monkeypatch, enabled):
    seen = []

    def recording(args, problem):
        seen.append((gc.get_threshold(), gc.isenabled()))
        return cli.Report("validate", "0" * 64)

    if not enabled:
        gc.disable()
    monkeypatch.setitem(cli.COMMANDS, "validate", recording)
    assert main(["validate", str(golden_dir / "e3.dgres")]) == 0
    assert seen == [(cli.GC_THRESHOLDS, enabled)]
    assert gc.get_threshold() == CALLER_THRESHOLDS and gc.isenabled() == enabled

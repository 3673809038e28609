"""Command line interface: validate | bar | semifree | homology | lift | derivations.

The CLI only parses and formats: it reads options and windows, gates the
certificates on a valid algebra or module, and renders the `ValidationReport`s
of the library checks (`bar.check_classical_bar`, `modules.check_beta`, ...)
and their tables.  Exit codes: 0 all checks pass, 1 at least one check fails,
2 usage or parse error.  Reports are byte-identical across reruns.
While a command runs, `main` raises the cyclic collector's thresholds
(`GC_THRESHOLDS`) and restores the caller's on return; library calls are not
affected.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .algebra import validate_dg
from .bar import (
    BAD_REDUCED_COLUMNS,
    be_linear_space,
    certify_reduced_bar,
    check_classical_bar,
    check_eta,
    check_reduced_bar,
    derivation_space,
)
from .errors import DgresError, UsageError
from .homology import QuasiIsoReport, _window, homology_dims, quasi_iso_check, reduced_bar_table
from .linalg import verify_certificate
from .modules import check_beta, check_lambda_splitting, check_rho, lemma_sign_check, naive_lift_solve, validate_module
from .report import Report, input_hash, render_machine, render_text
from .semifree import check_frakD_T_linearity, check_semifree_triangular, defect_details


def _common_options(args, problem) -> dict:
    opts = {}
    for key in ("max_degree", "max_n", "samples", "seed", "module", "reduced", "format"):
        val = getattr(args, key, None)
        if val is not None and val is not False:
            opts[key.replace("_", "-")] = val
    for key, val in sorted(problem.options.items()):
        opts[f"file:{key}"] = val
    return opts


_LEAST = {"max_degree": 0, "max_n": 1, "samples": 1}


def _opt_int(problem, args, name: str, default: int | None) -> int | None:
    """An integer option: the CLI flag, else the file's [options] line, else default.

    A window bound below its least value is a usage error: max-degree < 0,
    max-n < 1 (the classical bar checks d² = 0 only for n >= 1) and
    samples < 1 leave the window empty, so every check over it would pass
    vacuously.
    """
    val = getattr(args, name, None)
    if val is None:
        raw = problem.options.get(name.replace("_", "-"))
        if raw is None:
            return default
        try:
            val = int(raw)
        except ValueError:
            raise UsageError(f"option {name} in file must be an integer, got {raw!r}")
    least = _LEAST.get(name)
    if least is not None and val < least:
        raise UsageError(f"{name.replace('_', '-')} must be >= {least}, got {val}")
    return val


def _homology_window(problem, args) -> int:
    """max-degree of `semifree` and `homology`: homology is reported in degrees
    0..D-1, so D = 0 names an empty window and is a usage error."""
    D = _opt_int(problem, args, "max_degree", 8)
    if D < 1:
        raise UsageError(f"max-degree must be >= 1, got {D}")
    return D


def cmd_validate(args, problem) -> Report:
    rep = Report("validate", input_hash(problem.source_text), _common_options(args, problem))
    D = _opt_int(problem, args, "max_degree", 8)
    window = f"degrees 0..{D}"
    rep.add_validation("algebra", validate_dg(problem.algebra, D), window)
    for name in sorted(problem.modules):
        rep.add_validation(f"module[{name}]", validate_module(problem.modules[name]), window)
    return rep


def cmd_bar(args, problem) -> Report:
    rep = Report("bar", input_hash(problem.source_text), _common_options(args, problem))
    alg = problem.algebra
    D = _opt_int(problem, args, "max_degree", 6)
    if args.reduced:
        rep.add_validation("", check_reduced_bar(alg, D), f"degrees 0..{D}")
        return rep
    N = _opt_int(problem, args, "max_n", None)
    if N is None:
        raise UsageError("classical bar requires --max-n (word lengths are not degree-bounded)")
    rep.add_validation("", check_classical_bar(alg, N, D), f"n 0..{N}, degrees 0..{D}")
    return rep


INVALID_ALGEBRA = "the algebra fails its algebra:* checks, so no resolution of it is certified"
NO_PRODUCT = "the window holds no product DD_{t-1}DD_t with t >= 2, so nothing was checked"


def cmd_semifree(args, problem) -> Report:
    rep = Report("semifree", input_hash(problem.source_text), _common_options(args, problem))
    alg = problem.algebra
    D = _homology_window(problem, args)
    window = f"total degrees 0..{D}"
    valid = validate_dg(alg, D)
    if valid.passed:
        # one pass of `homology.certify_contraction`: 𝔻 and α columns are built
        # on the basis labels and each is checked once, against the flat 𝔻v
        # and αv for prefix 1 and n <= 1, and on the labels by the tail lemma
        # or the prefix lemma otherwise, so 𝔻², 𝔇∂ + ∂𝔇, α∘𝔻 = d^B∘α and the
        # contracting homotopy are read off the certified columns
        qi = quasi_iso_check(alg, D)
    else:
        # not a DG algebra over a DG subalgebra A, so (𝔹, 𝔻) resolves nothing
        rep.add_validation("algebra", valid, f"degrees 0..{D}")
        qi = QuasiIsoReport(False, [], _window(D), INVALID_ALGEBRA)
    for name in ("DD-squared-zero", "anticommutation", "alpha-chain-map"):
        # 𝔻² and 𝔇∂ + ∂𝔇 are read on the products 𝔻_{t-1}∘𝔻_t, t = 2..D: none below D = 2
        empty = bool(qi.checks) and D < 2 and name != "alpha-chain-map"
        rep.add_check(name, qi.checks.get(name, False) and not empty, window,
                      NO_PRODUCT if empty else "" if qi.checks else qi.details)
    # the window reaches (1, (1, 1, (e,))), of total degree 1 + |e|, the first label of word length >= 1
    top = min(D, max(5, 1 + min(alg.degvec[alg.n_base:], default=0)))
    rep.add_validation("", check_frakD_T_linearity(alg, top), f"total degrees 0..{top}, word length >= 1")
    rep.add_validation("semifree", check_semifree_triangular(alg, D), window)
    rep.add_check("quasi-isomorphism", qi.passed, qi.window, qi.details)
    if qi.passed:
        rep.tables["homology"] = [("degree", "dim H(BB)", "dim H(B)", "induced rank")] + qi.rows
    return rep


def cmd_homology(args, problem) -> Report:
    rep = Report("homology", input_hash(problem.source_text), _common_options(args, problem))
    alg = problem.algebra
    D = _homology_window(problem, args)
    head = [("degree", "cycles", "boundaries", "homology")]
    valid = validate_dg(alg, D)
    if not valid.passed:
        # d^B is no differential over a DG subalgebra A through degree D: H(B)
        # is undefined, and neither resolution is certified
        rep.add_validation("algebra", valid, f"degrees 0..{D}")
        for name in ("homology-dimensions-match", "reduced-bar-acyclic"):
            rep.add_check(name, False, _window(D), INVALID_ALGEBRA)
        return rep
    rep.tables["H(B)"] = head + homology_dims(alg, D).rows()
    # the reduced bar is certified and contracted on degrees 0..D-1, in one
    # pass of the certificate of (𝔹, 𝔻) on B with d forgotten
    cert = certify_reduced_bar(alg, D - 1)
    first = cert and next((lb for lb in cert[0] if lb is not None), None)
    acyclic = cert is not None and first is None and cert[1]
    if acyclic:
        rep.tables["H(reduced bar, augmented)"] = head + reduced_bar_table(alg, D).rows()
    # H(𝔹,𝔻) is read off the certificate shared with `semifree`
    qi = quasi_iso_check(alg, D)
    if qi.passed:
        rep.tables["H(BB,DD)"] = head + qi.table.rows()
    rep.add_check("homology-dimensions-match", qi.passed, qi.window, qi.details)
    red_details = defect_details(alg, first) if cert else BAD_REDUCED_COLUMNS
    rep.add_check("reduced-bar-acyclic", acyclic, qi.window, red_details)
    return rep


def cmd_lift(args, problem) -> Report:
    rep = Report("lift", input_hash(problem.source_text), _common_options(args, problem))
    if not args.module:
        raise UsageError("lift requires --module NAME")
    if args.module not in problem.modules:
        raise UsageError(f"module {args.module!r} not defined in the input file")
    N = problem.modules[args.module]
    D = _opt_int(problem, args, "max_degree", 8)
    seed = _opt_int(problem, args, "seed", 0)
    samples = _opt_int(problem, args, "samples", 100)
    module_rep = validate_module(N)
    rep.add_validation(f"module[{args.module}]", module_rep, "")
    if module_rep.passed:
        _lift_checks(rep, N, D)
    rep.add_validation("concat-sign-lemma", lemma_sign_check(N, samples, seed), f"{samples} samples, seed {seed}")
    return rep


def _lift_checks(rep: Report, N, D: int):
    """β_N, the naive lift and its certificate or λ-splitting: all need a valid module."""
    checks, rep.tables["beta"] = check_beta(N)
    rep.add_validation("", checks)
    res = naive_lift_solve(N)
    rep.tables["lift"] = [("verdict", "Liftable" if res.liftable else "NotLiftable"),
                          ("system", f"{res.system_rows}x{res.system_cols}")]
    if res.liftable:
        checks, rep.tables["rho"] = check_rho(N, res.rho)
        rep.add_validation("", checks)
        rep.add_validation("", check_lambda_splitting(N, res.rho, D), f"n 2..3, degrees 0..{D}")
    else:
        cert = res.certificate
        if cert is None:
            rep.add_check("infeasibility-certificate", False, "", "solver returned no certificate")
        else:
            ok_cert = verify_certificate(res.system, res.rhs, cert)
            rep.add_check("infeasibility-certificate", ok_cert, "",
                          "" if ok_cert else "certificate fails lambda^T A = 0, lambda^T b != 0")
            rep.tables["certificate"] = [("first-row", cert.first_row),
                                         ("rows", ",".join(str(r) for r in sorted(cert.row_combination)))]


def cmd_derivations(args, problem) -> Report:
    rep = Report("derivations", input_hash(problem.source_text), _common_options(args, problem))
    alg = problem.algebra
    D = _opt_int(problem, args, "max_degree", 6)
    dspace = derivation_space(alg, D)
    bspace = be_linear_space(alg, D)
    rep.tables["dimensions"] = [("Der_A(B, B^e)", len(dspace)), ("Hom_Be(J, B^e)", len(bspace))]
    rep.add_validation("", check_eta(alg, dspace, bspace), f"degrees 0..{D}")
    return rep


COMMANDS = {
    "validate": cmd_validate,
    "bar": cmd_bar,
    "semifree": cmd_semifree,
    "homology": cmd_homology,
    "lift": cmd_lift,
    "derivations": cmd_derivations,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dgres",
        description="Exact bar resolutions, diagonal tensor resolutions, and naive lifting for DG algebras.",
    )
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("file", help="problem file")
    p.add_argument("--max-degree", type=int, dest="max_degree")
    p.add_argument("--max-n", type=int, dest="max_n")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--module", type=str)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--format", choices=["text", "machine"], default="text")
    return p


FLAG_READER = {"samples": "lift", "seed": "lift", "module": "lift", "reduced": "bar", "max_n": "bar"}


def _reject_unread_flags(args):
    """A flag that the command (for --max-n, `bar` without --reduced) does not
    read is a usage error, not an echo in the options header.  [options]
    lines are not checked: one file serves many commands."""
    for key, command in FLAG_READER.items():
        val = getattr(args, key)
        if val is not None and val is not False and (command != args.command or key == "max_n" and args.reduced):
            shown = "bar --reduced" if args.reduced and args.command == "bar" else args.command
            raise UsageError(f"{shown} does not read --{key.replace('_', '-')}")


# The cyclic collector's thresholds while a command runs.  A `Monomial` is an
# int subclass with a __dict__, so the label tuples and columns that
# `homology.certify_contraction` keeps are never untracked, and at CPython's
# default (700, 10, 10) every full collection walks all of them: about a
# quarter of k3p `semifree` at D=28.  A collection of generation 0 every
# 100,000 net allocations still bounds any garbage cycle.
GC_THRESHOLDS = (100_000, 50, 100)

# Characters per write of the report: with an unbuffered stdout each write is
# a system call, so the rendered pieces are joined into chunks of about this
# size rather than written one line at a time.
WRITE_CHUNK = 1 << 16


def _write(pieces, out) -> None:
    """Write the rendered pieces to `out`, at most about WRITE_CHUNK characters
    plus one piece per call."""
    buf, size = [], 0
    for piece in pieces:
        buf.append(piece)
        size += len(piece)
        if size >= WRITE_CHUNK:
            out.write("".join(buf))
            buf, size = [], 0
    out.write("".join(buf))


def main(argv=None) -> int:
    saved = gc.get_threshold()
    gc.set_threshold(*GC_THRESHOLDS)
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code else 0
        try:
            from .probfile import parse_problem

            _reject_unread_flags(args)
            with open(args.file, "r", encoding="utf-8") as fh:
                problem = parse_problem(fh.read())
            rep = COMMANDS[args.command](args, problem)
        except (DgresError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _write(render_machine(rep) if args.format == "machine" else render_text(rep), sys.stdout)
        return 0 if rep.all_passed else 1
    finally:
        gc.set_threshold(*saved)


if __name__ == "__main__":
    raise SystemExit(main())

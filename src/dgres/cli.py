"""Command line interface: validate | bar | semifree | homology | lift | derivations.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 usage or parse
error.  Reports are byte-identical across reruns of the same invocation.
"""

from __future__ import annotations

import argparse
import random
import sys

from .algebra import validate_dg
from .bar import (
    bar_differential,
    bar_homotopy,
    be_linear_space,
    check_reduced_exactness,
    checked_reduced_columns,
    derivation_space,
    eta,
    eta_inverse,
    reduced_d_squared_zero,
)
from .errors import DgresError, ObstructionNonzero, ParseError, UsageError
from .homology import BAD_COLUMNS, QuasiIsoReport, _window, homology_dims, quasi_iso_check, reduced_bar_table
from .linalg import verify_certificate
from .modules import (
    DN,
    ModTensorElement,
    NTElement,
    alpha_N,
    bar_dN_any,
    beta_N,
    dN_matrix,
    lambda_n,
    lemma_sign_check,
    mod_element,
    mod_merge_at,
    mod_right_mult,
    module_N_differential,
    module_differential,
    naive_lift_solve,
    nt_right_mult,
    validate_module,
)
from .report import Report, input_hash, render_machine, render_text
from .sampling import random_scalar
from .semifree import bb_basis_element, bb_total_basis, check_semifree_triangular, frakD, t_action, t_word
from .tensor import TensorElement, tensor_basis, tensor_differential


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
        window = f"degrees 0..{D}"
        # d̄ columns are built on the δ-labels; once each is checked, exactness
        # and d̄² = 0 are read off the slice matrices
        ok_cols = checked_reduced_columns(alg, D)
        if ok_cols:
            rep.add_validation("reduced", check_reduced_exactness(alg, D), window)
        else:
            for d in range(D + 1):
                rep.add_check(f"reduced:reduced-exactness@deg{d}", False, window, BAD_REDUCED_COLUMNS)
        rep.add_check("reduced-d-squared-zero", ok_cols and reduced_d_squared_zero(alg, D), window,
                      "" if ok_cols else BAD_REDUCED_COLUMNS)
        return rep
    N = _opt_int(problem, args, "max_n", None)
    if N is None:
        raise UsageError("classical bar requires --max-n (word lengths are not degree-bounded)")
    window = f"n 0..{N}, degrees 0..{D}"
    ok_dd = True
    ok_h = True
    for n in range(0, N + 1):
        for d in range(0, D + 1):
            for w in tensor_basis(alg, n + 2, d):
                x = TensorElement.from_word(alg, w)
                dx = bar_differential(x, n)
                if n >= 1 and not bar_differential(dx, n - 1).is_zero():
                    ok_dd = False
                lhs = bar_differential(bar_homotopy(x), n + 1) + bar_homotopy(dx)
                if lhs != x:
                    ok_h = False
    rep.add_check("bar-d-squared-zero", ok_dd, window)
    rep.add_check("bar-homotopy-identity", ok_h, window)
    ok_aug = True
    from .tensor import pi_B
    for d in range(0, D + 1):
        for m in alg.basis("B", d):
            x = alg.from_monomial(m)
            if pi_B(bar_homotopy(x)) != x:
                ok_aug = False
    rep.add_check("bar-augmentation-homotopy", ok_aug, window)
    ok_dg = True
    for n in range(0, N + 1):
        for d in range(0, D + 1):
            for w in tensor_basis(alg, n + 2, d):
                x = TensorElement.from_word(alg, w)
                if bar_differential(tensor_differential(x), n) != tensor_differential(bar_differential(x, n)):
                    ok_dg = False
    rep.add_check("bar-commutes-with-internal-differential", ok_dg, window)
    return rep


BAD_REDUCED_COLUMNS = "a reduced bar column differs from the flat merge of its basis element"
INVALID_ALGEBRA = "the algebra fails its algebra:* checks, so no resolution of it is certified"
NO_SAMPLE = "no sample was checked"
NO_PRODUCT = "the window holds no product DD_{t-1}DD_t with t >= 2, so nothing was checked"
NO_NULLSPACE_VECTOR = "no nullspace vector in the window, so nothing was checked"
NO_GENERATOR = "the module has no generator, so nothing was checked"


def cmd_semifree(args, problem) -> Report:
    rep = Report("semifree", input_hash(problem.source_text), _common_options(args, problem))
    alg = problem.algebra
    D = _homology_window(problem, args)
    window = f"total degrees 0..{D}"
    valid = validate_dg(alg, D)
    if valid.passed:
        # 𝔻 and α columns are built on the basis labels; each is checked once,
        # against the flat 𝔻v and αv for prefix 1 and n <= 1, and on the labels
        # by the tail lemma or the prefix lemma otherwise, so 𝔻², 𝔇∂ + ∂𝔇,
        # α∘𝔻 = d^B∘α and the contracting homotopy are read off the matrices
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
    ok_tlin, pairs = True, 0
    ss = [t_word(alg, [alg.gen(g.name)]) for g in alg.gens]
    # the window reaches (1, (1, 1, (e,))), of total degree 1 + |e|, the first label of word length >= 1
    top = min(D, max(5, 1 + min(alg.degvec[alg.n_base:], default=0)))
    for t in range(0, top + 1):
        for label in bb_total_basis(alg, t):
            if label[0] < 1:
                continue
            v = bb_basis_element(alg, label)
            for s in ss:
                pairs += 1
                if frakD(t_action(v, s)) != t_action(frakD(v), s):
                    ok_tlin = False
    rep.add_check("frakD-T-linearity", ok_tlin and pairs > 0, f"total degrees 0..{top}, word length >= 1",
                  "" if pairs else "the window holds no label of word length >= 1, so nothing was checked")
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
    rep.tables["H(B)"] = head + homology_dims(alg, "B", D).rows()
    # the reduced bar is contracted on the slices of degrees 0..D-1, checked first
    ok_red = checked_reduced_columns(alg, D - 1)
    exact = check_reduced_exactness(alg, D - 1) if ok_red else None
    acyclic = ok_red and exact.passed and reduced_d_squared_zero(alg, D - 1)
    if acyclic:
        rep.tables["H(reduced bar, augmented)"] = head + reduced_bar_table(alg, D).rows()
    # H(𝔹,𝔻) is read off the certificate shared with `semifree`
    qi = quasi_iso_check(alg, D)
    if qi.passed:
        rep.tables["H(BB,DD)"] = head + qi.table.rows()
    rep.add_check("homology-dimensions-match", qi.passed, qi.window, qi.details)
    red_details = next((c.details for c in exact.failures()), "") if ok_red else BAD_REDUCED_COLUMNS
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
    alg = N.alg
    f = alg.field
    # β_N and ρ are checked generator by generator: a module without one checks nothing
    no_gen = "" if N.names else NO_GENERATOR

    # β_N(e_j) is built once, and kept only while a later ∂e_k still has a term at e_j
    last_use = {i: k for i, k in sorted(N.diff)}
    betas = {}
    bts = []
    ok_beta_chain = ok_beta_id = True
    for j, name in enumerate(N.names):
        b = betas[j] = beta_N(N, name)
        if alpha_N(b) != mod_element(N, name):
            ok_beta_id = False
        de = module_N_differential(mod_element(N, name))
        lhs = NTElement(N)
        for (i, w), c in de.terms.items():
            lhs = lhs + nt_right_mult(betas[i], alg.from_monomial(w[0], c))
        if lhs != DN(b):
            ok_beta_chain = False
        bts.append((name, repr(b)))
        for i in [i for i in betas if last_use.get(i, -1) <= j]:
            del betas[i]
    rep.add_check("beta-chain-map", ok_beta_chain and not no_gen, "", no_gen)
    rep.add_check("alphaN-betaN-identity", ok_beta_id and not no_gen, "", no_gen)
    rep.tables["beta"] = bts

    res = naive_lift_solve(N)
    rep.tables["lift"] = [("verdict", "Liftable" if res.liftable else "NotLiftable"),
                          ("system", f"{res.system_rows}x{res.system_cols}")]
    if res.liftable:
        ok_pi = ok_chain = True
        for name in N.names:
            img = res.rho[name]
            if mod_merge_at(img, 0) != mod_element(N, name):
                ok_pi = False
            lhs = ModTensorElement(N, 2)
            de = module_N_differential(mod_element(N, name))
            for (i, w), c in de.terms.items():
                lhs = lhs + mod_right_mult(res.rho[N.names[i]], alg.from_monomial(w[0], c))
            if lhs != module_differential(img):
                ok_chain = False
        rep.add_check("rho-splits-augmentation", ok_pi and not no_gen, "", no_gen)
        rep.add_check("rho-chain-map", ok_chain and not no_gen, "", no_gen)
        rep.tables["rho"] = [(name, repr(res.rho[name])) for name in N.names]
        ok_lam = True
        checked = 0
        for n in range(2, 4):
            for d in range(0, D + 1):
                M = dN_matrix(N, n, d)
                for vec in M.nullspace():
                    checked += 1
                    el = ModTensorElement(N, n, {key: c for key, c in zip(M.col_labels, vec) if c != f.zero})
                    if bar_dN_any(lambda_n(N, res.rho, n, el)) != el:
                        ok_lam = False
        rep.add_check("lambda-splitting-identities", ok_lam and checked > 0, f"n 2..3, degrees 0..{D}",
                      "" if checked else NO_NULLSPACE_VECTOR)
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
    samples = _opt_int(problem, args, "samples", 50)
    seed = _opt_int(problem, args, "seed", 0)
    rng = random.Random(seed)
    window = f"degrees 0..{D}, {samples} samples, seed {seed}"
    dspace = derivation_space(alg, D)
    bspace = be_linear_space(alg, D)
    rep.tables["dimensions"] = [("Der_A(B, B^e)", len(dspace)), ("Hom_Be(J, B^e)", len(bspace))]
    rep.add_check("derivation-hom-dim-match", len(dspace) == len(bspace), window)
    f = alg.field

    def combine(space, images_attr="images"):
        images = {}
        for tab in space:
            c = random_scalar(f, rng)
            for k, t in getattr(tab, images_attr).items():
                cur = images.get(k, TensorElement(alg, 2))
                images[k] = cur + t.scale(c)
        return {k: t for k, t in images.items() if not t.is_zero()}

    ok_d = True
    for _ in range(samples if dspace else 0):
        Dt = type(dspace[0])(alg, D, combine(dspace))
        if not Dt.validate().passed:
            ok_d = False
            continue
        g = eta_inverse(Dt)
        Dt2 = eta(g)
        keys = set(Dt.images) | set(Dt2.images)
        zero = TensorElement(alg, 2)
        if any(Dt.images.get(k, zero) != Dt2.images.get(k, zero) for k in keys):
            ok_d = False
    rep.add_check("eta-of-eta-inverse-identity", ok_d and bool(dspace), window, "" if dspace else NO_SAMPLE)

    ok_f = True
    for _ in range(samples if bspace else 0):
        fm = type(bspace[0])(alg, D, combine(bspace))
        Dt = eta(fm)
        f2 = eta_inverse(Dt)
        zero = TensorElement(alg, 2)
        keys = set(fm.images) | set(f2.images)
        if any(fm.images.get(k, zero) != f2.images.get(k, zero) for k in keys):
            ok_f = False
    rep.add_check("eta-inverse-of-eta-identity", ok_f and bool(bspace), window, "" if bspace else NO_SAMPLE)

    # corrupted input must be rejected, not silently accepted
    ok_reject = None  # no corrupted derivation was checked
    if dspace:
        Dt = type(dspace[0])(alg, D, dict(dspace[0].images))
        corrupt = None
        for d in range(1, D + 1):
            basis = tensor_basis(alg, 2, d)
            monos = alg.basis("B", d)
            if basis and monos:
                corrupt = (monos[0], TensorElement.from_word(alg, basis[0]))
                break
        if corrupt is not None:
            m, t = corrupt
            images = dict(Dt.images)
            images[m] = images.get(m, TensorElement(alg, 2)) + t
            bad = type(dspace[0])(alg, D, images)
            try:
                eta_inverse(bad)
                ok_reject = bad.validate().passed  # only acceptable if it truly is a derivation
            except ObstructionNonzero:
                ok_reject = True
    rep.add_check("corrupted-derivation-rejected", bool(ok_reject), window, "" if ok_reject is not None else NO_SAMPLE)
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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        from .probfile import parse_problem

        problem = parse_problem(text)
        rep = COMMANDS[args.command](args, problem)
    except (ParseError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DgresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = render_machine(rep) if args.format == "machine" else render_text(rep)
    sys.stdout.write(out)
    return 0 if rep.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

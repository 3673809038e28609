"""Acceptance suite: one test per criterion, exact (zero-tolerance) checks.

Each test prints a single `ACCEPTANCE <k>: PASS ...` line (visible with
pytest -s); any violation fails the test outright.  Fixtures: E1, E2, E3
over ℚ and over F_101.
"""

import random
import time
from contextlib import contextmanager

import pytest

from dgres.bar import be_linear_space, check_classical_bar, check_eta, check_reduced_exactness, derivation_space
from dgres.cli import main as cli_main
from dgres.fixtures import all_fixtures, chain_N3, extended_module, koszul_K, module_B
from dgres.homology import quasi_iso_check
from dgres.modules import check_beta, check_lambda_splitting, check_rho, lemma_sign_check, naive_lift_solve
from dgres.sampling import random_homogeneous_element
from dgres.semifree import DD, bb_basis_element, bb_total_basis, dBB, frakD

from oracles import jn_basis_element, jn_basis_labels, kappa_n, kappa_n_inverse

FIXTURES = all_fixtures()


@contextmanager
def criterion(k: int, description: str, budget_s: float | None = None):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"ACCEPTANCE {k}: FAIL {description} ({elapsed:.2f}s > {budget_s}s budget)")
        pytest.fail(f"criterion {k} exceeded its {budget_s}s budget: {elapsed:.2f}s")
    print(f"ACCEPTANCE {k}: PASS {description} ({elapsed:.2f}s)")


def test_criterion_1_commutativity_and_leibniz():
    with criterion(1, "strong commutativity + Leibniz, 1000 seeded pairs per fixture", 5.0):
        for name, alg in FIXTURES.items():
            rng = random.Random(1000 + len(name))
            for _ in range(1000):
                du, dv = rng.randrange(0, 5), rng.randrange(0, 5)
                u = random_homogeneous_element(alg, rng, du)
                v = random_homogeneous_element(alg, rng, dv)
                sign = -1 if (du % 2 and dv % 2) else 1
                assert u * v == (v * u).scale_int(sign)
                if du % 2:
                    assert (u * u).is_zero()
                lhs = alg.d(u * v)
                rhs = alg.d(u) * v + (u * alg.d(v)).scale_int(-1 if du % 2 else 1)
                assert lhs == rhs


def test_criterion_2_classical_bar():
    with criterion(2, "classical bar d²=0, homotopy and commutation identities, n<=4, deg<=8", 30.0):
        for name, alg in FIXTURES.items():
            rep = check_classical_bar(alg, 4, 8)
            assert rep.passed, (name, [c.name for c in rep.failures()])


def test_criterion_3_reduced_bar_exactness():
    with criterion(3, "reduced bar exactness, deg<=8, all fixtures", 60.0):
        for name, alg in FIXTURES.items():
            rep = check_reduced_exactness(alg, 8)
            assert rep.passed, (name, [c.details for c in rep.failures()])


def test_criterion_4_kappa_round_trip():
    with criterion(4, "kappa_n round trips, n<=3, deg<=8"):
        for alg in FIXTURES.values():
            for n in range(0, 4):
                for d in range(0, 9):
                    for label in jn_basis_labels(alg, n, d):
                        t = jn_basis_element(alg, label)
                        view = kappa_n_inverse(t, n)
                        assert kappa_n(alg, n, view.left_coords) == t


def test_criterion_5_semifree_differential_identities():
    with criterion(5, "anticommutation and DD²=0 on all basis elements, total deg<=8", 60.0):
        for alg in FIXTURES.values():
            for t in range(0, 9):
                for label in bb_total_basis(alg, t):
                    v = bb_basis_element(alg, label)
                    assert DD(DD(v)).is_zero()
                    assert (frakD(dBB(v)) + dBB(frakD(v))).is_zero()


def test_criterion_6_quasi_isomorphism():
    with criterion(6, "alpha chain map and quasi-isomorphism through degree 7", 120.0):
        from dgres.semifree import alpha

        for name, alg in FIXTURES.items():
            for t in range(0, 9):
                for label in bb_total_basis(alg, t):
                    v = bb_basis_element(alg, label)
                    assert alpha(DD(v)) == alg.d(alpha(v))
            rep = quasi_iso_check(alg, 8)
            assert rep.passed, (name, rep.rows)


def test_criterion_7_eta_round_trips():
    with criterion(7, "eta/eta-inverse mutual inverses on each basis element, each way, deg<=6"):
        for name, alg in FIXTURES.items():
            rep = check_eta(alg, derivation_space(alg, 6), be_linear_space(alg, 6))
            assert rep.passed, (name, [c.name for c in rep.failures()])


def test_criterion_8_beta_splitting():
    with criterion(8, "beta chain map and alpha_N beta_N = id on B, K, N3", 10.0):
        modules = [module_B(alg) for alg in FIXTURES.values()]
        modules += [koszul_K(FIXTURES[name]) for name in ("E2", "E2p")]
        modules += [chain_N3(FIXTURES[name]) for name in ("E1", "E1p")]
        for N in modules:
            rep = check_beta(N)[0]
            assert rep.passed, (N, [c.name for c in rep.failures()])


def test_criterion_9_lifting():
    with criterion(9, "naive lift of B and extended modules, lambda identities n<=3, deg<=8"):
        for name, alg in FIXTURES.items():
            for N in (module_B(alg), extended_module(alg)):
                res = naive_lift_solve(N)
                assert res.liftable, name
                for rep in (check_rho(N, res.rho)[0], check_lambda_splitting(N, res.rho, 8)):
                    assert rep.passed, (name, N, [c.name for c in rep.failures()])


def test_criterion_10_lemma_sign_identities():
    with criterion(10, "concatenation sign identities, 200 seeded samples per fixture"):
        for name, alg in FIXTURES.items():
            N = module_B(alg)
            rep = lemma_sign_check(N, 200, 1010 + len(name))
            assert rep.passed, (name, [c.details for c in rep.failures()])


GOLDEN_COMMANDS = [
    ["validate", "e3.dgres"],
    ["validate", "e3p.dgres"],
    ["bar", "e1.dgres", "--max-n", "3", "--max-degree", "5"],
    ["bar", "e2.dgres", "--reduced", "--max-degree", "6"],
    ["semifree", "e1.dgres", "--max-degree", "6"],
    ["homology", "e3.dgres", "--max-degree", "6"],
    ["lift", "e2.dgres", "--module", "K"],
    ["lift", "e1.dgres", "--module", "CB"],
    ["derivations", "e2.dgres", "--max-degree", "5"],
]


def test_criterion_11_determinism(golden_dir, capsys):
    with criterion(11, "byte-identical reports for every golden command, both formats"):
        for cmd in GOLDEN_COMMANDS:
            for fmt in ("text", "machine"):
                args = [cmd[0], str(golden_dir / cmd[1])] + cmd[2:] + ["--format", fmt]
                cli_main(args)
                first = capsys.readouterr().out
                cli_main(args)
                second = capsys.readouterr().out
                assert first.encode("utf-8") == second.encode("utf-8"), args

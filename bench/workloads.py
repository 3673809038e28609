"""The four benchmark workloads: problem generators and frozen expectations.

Each workload writes one problem file from the benchmark seed and names the
CLI arguments it runs with.  The seeded coefficients rescale generators, so
every seed gives a problem isomorphic to the seed-0 one: the verdict, the
system size, the homology table and every check line are the same on every
seed, and are frozen below as the correctness reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], tuple[str, list[str]]]  # seed -> (problem text, argv after the file)
    command: str
    checks: tuple[str, ...]     # expected check lines, whitespace-normalised; {seed} is the lift seed
    tables: dict                # table name -> expected rows, whitespace-normalised

    def expected_checks(self, seed: int) -> list[str]:
        args = self.generate(seed)[1]
        tag = args[args.index("--seed") + 1] if "--seed" in args else ""
        return [c.replace("{seed}", tag) for c in self.checks]


def _exterior(seed: int) -> tuple[str, list[str]]:
    text = ("# Lambda(a,b,c) over Q, |a| = |b| = |c| = 1, d = 0\n"
            "field rationals\n\n[algebra]\next a 1\next b 1\next c 1\n")
    return text, ["--reduced", "--max-degree", "4"]


def _polynomial(seed: int) -> tuple[str, list[str]]:
    text = "# E2 = Q[x], |x| = 2\nfield rationals\n\n[algebra]\next x 2\n"
    return text, ["--reduced", "--max-degree", "14"]


def _koszul(seed: int) -> tuple[str, list[str]]:
    rng = random.Random(seed)
    c = [rng.randrange(1, 101) for _ in range(3)]
    text = ("# k3 = F_101[x,y,z]<e,f,g>, |x| = |y| = |z| = 2, |e| = |f| = |g| = 3\n"
            "field prime 101\n\n[algebra]\n"
            "base x 2\nbase y 2\nbase z 2\next e 3\next f 3\next g 3\n"
            f"d e = {c[0]}*x\nd f = {c[1]}*y\nd g = {c[2]}*z\n")
    return text, ["--max-degree", "14"]


def _chain(seed: int) -> tuple[str, list[str]]:
    rng = random.Random(seed)
    lines = ["# C9 over Lambda(a,b,c): d f_i = f_{i-1} * c_i a", "field rationals", "",
             "[algebra]", "ext a 1", "ext b 1", "ext c 1", "", "[module C9]"]
    lines += [f"generator f{i} {2 * i}" for i in range(10)]
    for i in range(1, 10):
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice((1, -1))
        lines.append(f"entry f{i} f{i - 1} = {c}*a")
    return "\n".join(lines) + "\n", ["--module", "C9", "--seed", str(rng.randrange(1000))]


EXTERIOR_CHECKS = tuple(f"PASS reduced:reduced-exactness@deg{d} [degrees 0..4]" for d in range(5)) + (
    "PASS reduced-d-squared-zero [degrees 0..4]",)

POLYNOMIAL_CHECKS = tuple(f"PASS reduced:reduced-exactness@deg{d} [degrees 0..14]" for d in range(15)) + (
    "PASS reduced-d-squared-zero [degrees 0..14]",)

WORKLOADS = {
    # Tall, sparse, mostly-zero ℚ slices: dense Bareiss rank is most of the
    # time and basis enumeration a few percent, so an elimination change shows
    # here.  The input does not depend on the seed.
    "exterior-reduced-bar": Workload(
        name="exterior-reduced-bar",
        generate=_exterior,
        command="bar",
        checks=EXTERIOR_CHECKS,
        tables={},
    ),
    # Ambient tensor_basis enumeration and sorting (through bar.word_index)
    # dominates, elimination is small: an assembly or basis change shows here,
    # and it is the no-change control for elimination work.  The input does
    # not depend on the seed.
    "polynomial-reduced-bar": Workload(
        name="polynomial-reduced-bar",
        generate=_polynomial,
        command="bar",
        checks=POLYNOMIAL_CHECKS,
        tables={},
    ),
    # Element arithmetic in semifree (DD, frakD) first, then a mod-p nullspace
    # and bb_dd_matrix assembly: linalg over F_p, with nullspace, unlike the
    # other three.  The seed draws the nonzero coefficients of d e, d f, d g.
    "koszul-semifree-p": Workload(
        name="koszul-semifree-p",
        generate=_koszul,
        command="semifree",
        checks=(
            "PASS DD-squared-zero [total degrees 0..14]",
            "PASS anticommutation [total degrees 0..14]",
            "PASS alpha-chain-map [total degrees 0..14]",
            "PASS frakD-T-linearity [total degrees 0..5, word length >= 1]",
            "PASS semifree:semifree-triangularity [total degrees 0..14]",
            "PASS quasi-isomorphism [degrees 0..13 (built through 14)]",
        ),
        tables={"homology": ["degree dim H(BB) dim H(B) induced rank", "0 1 1 1"]
                + [f"{d} 0 0 0" for d in range(1, 14)]},
    ),
    # The only workload on the solve path and the modules layer: a dense rref
    # with an identity block decides NotLiftable on a 293x272 system.  The
    # seed draws the nonzero rational c_i and the lift --seed.
    "chain-lift": Workload(
        name="chain-lift",
        generate=_chain,
        command="lift",
        checks=(
            "PASS module[C9]:entry-degrees",
            "PASS module[C9]:strict-triangularity",
            "PASS module[C9]:d-squared-zero",
            "PASS beta-chain-map",
            "PASS alphaN-betaN-identity",
            "PASS infeasibility-certificate",
            "PASS concat-sign-lemma:concat-identity-bar [100 samples, seed {seed}]",
            "PASS concat-sign-lemma:concat-identity-module [100 samples, seed {seed}]",
        ),
        tables={"lift": ["verdict NotLiftable", "system 293x272"]},
    ),
}


def invariant_content(report: str) -> tuple[list[str], dict, str | None]:
    """The seed-invariant part of a text report: check lines, tables, verdict."""
    checks, tables, verdict = [], {}, None
    current = None
    for line in report.splitlines():
        norm = " ".join(line.split())
        if line.startswith(("  PASS  ", "  FAIL  ")):
            checks.append(norm)
        elif line.startswith("table ") and line.endswith(":"):
            current = tables.setdefault(line[len("table "):-1], [])
        elif line.startswith("  ") and current is not None:
            current.append(norm)
        elif line.startswith("verdict: "):
            verdict = line[len("verdict: "):]
        else:
            current = None
    return checks, tables, verdict


def check_report(wl: Workload, seed: int, report: str) -> str:
    """'' when the report matches the frozen values, else what differs."""
    checks, tables, verdict = invariant_content(report)
    if checks != wl.expected_checks(seed):
        return f"check lines differ: {checks}"
    for name, rows in wl.tables.items():
        if tables.get(name) != rows:
            return f"table {name} differs: {tables.get(name)}"
    if verdict != "PASS":
        return f"verdict {verdict!r}, expected 'PASS'"
    return ""

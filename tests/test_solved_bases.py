"""The solved bases, pinned: any change to an assembled system or its solution fails here.

tests/golden/solved_bases.txt holds
- the images of every table of `derivation_space` and `be_linear_space` on the
  six fixtures and on k2 = ℚ[x,y]⟨e,f⟩ (de = x, df = y) at cutoffs 0..5, and
  on Λ(a,b,c) at cutoffs 0..3;
- for every module of every tests/golden/*.dgres and for a 10-generator chain
  C9 over Λ(a,b,c), the `naive_lift_solve` system: its shape, its sorted
  entries (a sha256 of them for C9), its right-hand side, and ρ or the
  infeasibility certificate.

The file was recorded before the systems were assembled by
`SliceMatrix.from_columns`.  A deliberate change regenerates it with

    PYTHONPATH=src python tests/test_solved_bases.py > tests/golden/solved_bases.txt
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from dgres.algebra import DGAlgebra  # noqa: E402
from dgres.bar import be_linear_space, derivation_space  # noqa: E402
from dgres.fixtures import all_fixtures  # noqa: E402
from dgres.modules import naive_lift_solve  # noqa: E402
from dgres.probfile import parse_problem  # noqa: E402
from dgres.scalars import Field  # noqa: E402
from test_sampling import C9  # noqa: E402

GOLDEN = Path(__file__).parent / "golden"


def _algebras() -> dict:
    algs = dict(all_fixtures())
    algs["k2"] = DGAlgebra(Field.rationals(), base_gens=[("x", 2), ("y", 2)], ext_gens=[("e", 3), ("f", 3)],
                           diff_terms={"e": [(1, {"x": 1})], "f": [(1, {"y": 1})]})
    algs["lam"] = DGAlgebra(Field.rationals(), ext_gens=[("a", 1), ("b", 1), ("c", 1)])
    return algs


def _lift_lines(label: str, N, digest: bool) -> list[str]:
    res = naive_lift_solve(N)
    entries = repr(sorted(res.system.entries.items()))
    if digest:
        entries = "sha256 " + hashlib.sha256(entries.encode()).hexdigest()
    lines = [f"lift {label}: system {res.system_rows}x{res.system_cols}",
             f"  entries {entries}", f"  rhs {res.rhs!r}"]
    if res.liftable:
        lines += [f"  rho {name} = {img!r}" for name, img in res.rho.items()]
    else:
        cert = res.certificate
        lines.append(f"  certificate first_row={cert.first_row} {sorted(cert.row_combination.items())!r}")
    return lines


def render() -> str:
    lines = []
    for name, alg in _algebras().items():
        for cutoff in range(4 if name == "lam" else 6):
            for space in (derivation_space, be_linear_space):
                tables = space(alg, cutoff)
                lines.append(f"{space.__name__} {name} cutoff {cutoff}: {len(tables)} tables")
                lines += [f"  cutoff={t.cutoff} images={t.images!r}" for t in tables]
    for path in sorted(GOLDEN.glob("*.dgres")):
        for mod_name, N in parse_problem(path.read_text()).modules.items():
            lines += _lift_lines(f"{path.name} {mod_name}", N, digest=False)
    lines += _lift_lines("C9", parse_problem(C9).modules["C9"], digest=True)
    return "\n".join(lines) + "\n"


def test_solved_bases_match_golden():
    assert render() == (GOLDEN / "solved_bases.txt").read_text()


if __name__ == "__main__":
    sys.stdout.write(render())

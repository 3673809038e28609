import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from dgres.algebra import DGAlgebra
from dgres.fixtures import all_fixtures, e1, e2, e3
from dgres.scalars import Field

# HYPOTHESIS_PROFILE=ci derandomizes every property test, so a CI failure
# reproduces locally with the same setting; the default profile stays random.
settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def E1():
    return e1()


@pytest.fixture(scope="session")
def E2():
    return e2()


@pytest.fixture(scope="session")
def E3():
    return e3()


@pytest.fixture(scope="session")
def E3p():
    return e3(Field.prime(101))


@pytest.fixture(scope="session")
def fixture_algebras():
    return all_fixtures()


@pytest.fixture(scope="session")
def K3p():
    """F_101[x,y,z]<e,f,g> with de = x, df = y, dg = z: the Koszul tower of the benchmark."""
    return DGAlgebra(
        Field.prime(101),
        base_gens=[("x", 2), ("y", 2), ("z", 2)],
        ext_gens=[("e", 3), ("f", 3), ("g", 3)],
        diff_terms={"e": [(1, {"x": 1})], "f": [(1, {"y": 1})], "g": [(1, {"z": 1})]},
    )


@pytest.fixture(scope="session")
def odd_base():
    """An odd base generator a in the differentials: moving a into slot 0 carries a sign."""
    return DGAlgebra(
        Field.rationals(),
        base_gens=[("a", 1)],
        ext_gens=[("e", 2), ("f", 1), ("g", 3)],
        diff_terms={"e": [(1, {"a": 1})], "g": [(1, {"a": 1, "f": 1})]},
    )


GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def golden_dir():
    return GOLDEN_DIR

"""One slice type lists and unranks the words of B^{⊗_A m}, and the samplers draw what enumeration drew.

`tensor.TensorSlice` lists its words by unranking s[0], s[1], ..., so
unranking matches enumeration by construction; `tests/oracles.py`'s
`word_basis_oracle` and `modtensor_basis_oracle` pin the order itself.
"""

import random
from pathlib import Path

import pytest

from dgres.fixtures import all_fixtures, chain_N3, extended_module, module_B
from dgres.modules import LEMMA_MAX_DEGREE, LEMMA_MAX_WORDS, modtensor_basis
from dgres.probfile import parse_problem
from dgres.sampling import ModTensorSlice, random_homogeneous_modtensor, random_homogeneous_tensor, random_scalar
from dgres.scalars import Field
from dgres.tensor import TensorSlice, tensor_basis
from oracles import (enumerating_random_modtensor, enumerating_random_tensor, fraction_random_scalar,
                     modtensor_basis_oracle, word_basis_oracle)

# lemma_sign_check's bounds: tensors of 1..4 words and module tensors of
# 2..5 words, in degrees 0..6
MAX_DEGREE, MAX_WORDS = LEMMA_MAX_DEGREE, LEMMA_MAX_WORDS

C9 = "\n".join(
    ["field rationals", "[algebra]", "ext a 1", "ext b 1", "ext c 1", "[module C9]"]
    + [f"generator f{i} {2 * i}" for i in range(10)]
    + [f"entry f{i} f{i - 1} = {(-1) ** i * i}/{i + 1}*a" for i in range(1, 10)]) + "\n"


def _modules():
    out = {}
    for name, alg in all_fixtures().items():
        out[f"{name}:B"] = module_B(alg)
        out[f"{name}:ext"] = extended_module(alg)
        if name.startswith("E1"):
            out[f"{name}:N3"] = chain_N3(alg)
    out["C9"] = parse_problem(C9).modules["C9"]
    # generators not in ascending degree: the keys stay in generator order
    out["lam3:descending"] = parse_problem("\n".join(
        ["field rationals", "[algebra]", "ext a 1", "ext b 1", "ext c 1", "[module D]",
         "generator g 3", "generator h 0", "generator k 1", "entry k h = a"]) + "\n").modules["D"]
    return out


MODULES = _modules()
GOLDEN = Path(__file__).parent / "golden"
ALGEBRAS = {**all_fixtures(), **{name: parse_problem((GOLDEN / f"{name}.dgres").read_text()).algebra
                                 for name in ("lam3", "k3p")}}


def _exps(word):
    return tuple(m.exps for m in word)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_slices_list_words_in_oracle_order(name):
    alg = ALGEBRAS[name]
    for length in range(1, 6):
        for degree in range(7):
            want = word_basis_oracle(alg, length, degree)
            assert [_exps(w) for w in tensor_basis(alg, length, degree)] == want, (length, degree)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_keys_are_index_first_in_oracle_order(name):
    N = MODULES[name]
    for length in range(1, 4):
        for degree in range(-1, 6):
            got = [(i, _exps(w)) for i, w in modtensor_basis(N, length, degree)]
            assert got == modtensor_basis_oracle(N, length, degree), (length, degree)


@pytest.mark.parametrize("name", sorted(MODULES))
def test_slices_unrank_in_basis_order(name):
    N = MODULES[name]
    for degree in range(-1, MAX_DEGREE + 1):
        slices = [(length, TensorSlice(N.alg, length, degree), tensor_basis(N.alg, length, degree))
                  for length in range(1, MAX_WORDS + 1)]
        slices += [(length, ModTensorSlice(N, length, degree), modtensor_basis(N, length, degree))
                   for length in range(2, MAX_WORDS + 2)]
        for length, keys, basis in slices:
            # keys[k] in a fresh slice is the k-th basis word, and it ends at len(keys)
            assert [keys[k] for k in range(len(keys))] == list(basis), (length, degree)
            with pytest.raises(IndexError):
                keys[len(keys)]
            with pytest.raises(IndexError):
                keys[-1]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_samplers_draw_as_enumeration_did(name):
    N = MODULES[name]
    new, old = random.Random(name), random.Random(name)
    for _ in range(60):
        length, degree = new.randrange(1, MAX_WORDS + 1), new.randrange(0, MAX_DEGREE + 1)
        assert (length, degree) == (old.randrange(1, MAX_WORDS + 1), old.randrange(0, MAX_DEGREE + 1))
        t = random_homogeneous_tensor(N.alg, new, length, degree)
        assert t.terms == enumerating_random_tensor(N.alg, old, length, degree).terms
        g = random_homogeneous_modtensor(N, new, length + 1, degree)
        assert g.terms == enumerating_random_modtensor(N, old, length + 1, degree).terms
        assert new.getstate() == old.getstate()


@pytest.mark.parametrize("field", [Field.rationals(), Field.prime(101)], ids=repr)
def test_random_scalar_draws_as_before(field):
    new, old = random.Random(31), random.Random(31)
    for _ in range(1000):
        got, want = random_scalar(field, new), fraction_random_scalar(field, old)
        assert got == want and type(got) is type(want) and str(got) == str(want)
    assert new.getstate() == old.getstate()

"""Exact constructions over DG algebras: bar resolutions, the diagonal
tensor resolution (𝔹, 𝔻) with its splitting β, and naive-lifting decisions.
"""

from .algebra import (
    AlgElement,
    DGAlgebra,
    Generator,
    Monomial,
    validate_dg,
)
from .bar import (
    BeLinearMap,
    DerivationTable,
    bar_action,
    bar_differential,
    bar_homotopy,
    be_linear_space,
    check_classical_bar,
    check_eta,
    check_reduced_exactness,
    derivation_space,
    eta,
    eta_inverse,
    nu,
    reduced_bar_differential,
)
from .errors import (
    DgresError,
    LengthMismatch,
    MismatchedAlgebra,
    NotInDomain,
    NotInJn,
    NotLinear,
    NotValidated,
    ObstructionNonzero,
    ParseError,
    ShapeMismatch,
    UsageError,
    WindowIncomplete,
)
from .homology import HomologyTable, homology_dims, quasi_iso_check
from .linalg import SliceMatrix, solve_linear, verify_certificate
from .modules import (
    LiftResult,
    ModTensorElement,
    NTElement,
    SemifreeModule,
    alpha_N,
    beta_N,
    check_beta,
    check_lambda_splitting,
    check_rho,
    DN,
    lambda_n,
    lemma_sign_check,
    mod_element,
    naive_lift_solve,
    validate_module,
)
from .report import CheckRecord, ValidationReport
from .scalars import Field
from .semifree import (
    BBElement,
    TElement,
    DD,
    alpha,
    bb_word,
    check_frakD_T_linearity,
    check_semifree_triangular,
    dBB,
    frakD,
    psi_sign,
    t_action,
    t_multiply,
    t_word,
)
from .tensor import (
    TensorElement,
    delta,
    pi_B,
    tensor_differential,
    tensor_multiply,
)

__version__ = "0.1.0"

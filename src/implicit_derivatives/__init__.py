"""Exact closed-form higher derivatives of implicit functions.

Given f(x, y) = 0 with f_y != 0 at a base point, this package builds the
n-th derivative of the implicitly defined y(x) in two exact shapes (a
compact form over binomial combination blocks and the fully expanded
form over raw partials), verifies every route between them against a
brute-force differentiation oracle, and evaluates the formulas on
numeric or exact-rational derivative jets.
"""

from .coeffs import (
    CheckReport,
    SignedCoefficient,
    binom,
    coeff_C,
    coeff_D,
    signed_coeff,
    verify_C_recursion,
    zgamma_sum,
)
from .errors import (
    CapError,
    DomainError,
    FormulaError,
    JetError,
    NewtonError,
    SingularJetError,
)
from .expressions import (
    DeltaFormula,
    DeltaMonomial,
    ElemFormula,
    ElemMonomial,
    formula_from_json,
    formula_to_json,
    render,
)
from .formula import (
    delta_formula,
    delta_formula_via_recursion,
    derive_next,
    elementary_formula,
    expand_block,
    expand_delta,
    inverse_function_formula,
    specialize_fx_zero,
)
from .keys import VectorKey
from .numeric import (
    EvalReport,
    Jet,
    ProblemSpec,
    builtin_problem,
    eval_delta_block,
    eval_formula,
    finite_difference_derivatives,
    jet_from_json,
    jet_to_json,
    random_rational_jet,
    shift_jet,
)
from .oracle import PolyExpr, formulas_equal, oracle_formula, total_derivative
from .partitions import (
    Multiplicities,
    PartitionFamilyTag,
    PredecessorRecord,
    enumerate_A,
    enumerate_B,
    enumerate_Z,
    lift_to_tilde,
    predecessors,
)

__version__ = "0.1.0"

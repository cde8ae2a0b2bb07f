"""Exact order growth along towers for elementary modules with descent data.

The package computes, in exact integer arithmetic, the orders of the finite
tower quotients of an elementary module over the one-variable power series
ring at a prime l, together with the structural invariants and the asymptotic
parameters (rho, mu, lam_tilde) that govern the growth of those orders.

``cyclotomic_factors`` and ``tower_ratio`` stay public although the engine's
own path uses neither.  They are the exact references beside it:
``enumeration_oracle`` and ``demos/descent_defect.py`` multiply by
``tower_ratio``, and the tests' corpus builds valid generic data from the
irreducible factors that ``cyclotomic_factors`` lists.
"""

from .fitting import (
    AmbiguousFitError,
    BoundedSpread,
    FitResult,
    UltimatelyConstant,
    Unbounded,
    VerificationReport,
    fit_parameters,
    verify_prediction,
)
from .invariants import (
    Grade,
    ParamTriple,
    StructuralInvariants,
    codescent_defect,
    defect_bound,
    predict_parameters,
    structural_invariants,
)
from .modules import (
    CaseTag,
    DistinguishedFactor,
    ElementaryModule,
    GenericDescent,
    LPower,
    ModuleElement,
    SpecialDescent,
    ValidationReport,
    classify_case,
    require_valid,
    validate_descent,
    zero_element,
)
from .polynomials import (
    IntPoly,
    Prime,
    as_prime,
    cyclotomic_factors,
    is_distinguished,
    monomial,
    tower_poly,
    tower_ratio,
)
from .quotients import (
    CapExceeded,
    DEFAULT_DIMENSION_CAP,
    DEFAULT_ELEMENT_CAP,
    FiniteAbelianGroup,
    OrderSequence,
    enumeration_oracle,
    order_sequence,
    order_valuation,
    quotient_group,
)
from .scenario_io import RunSpec, ScenarioParseError, parse_run, serialize_run
from .scenarios import (
    MirrorReport,
    MirrorSide,
    Scenario,
    builtin_scenario,
    default_level_range,
    full_span_scenario,
    lambda_floor_holds,
    mirror_check,
    mirror_context_for_full_span,
    replicated_full_span_scenario,
    scenario_names,
    special_demo_scenario,
    trivial_demo_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousFitError",
    "BoundedSpread",
    "CapExceeded",
    "CaseTag",
    "DEFAULT_DIMENSION_CAP",
    "DEFAULT_ELEMENT_CAP",
    "DistinguishedFactor",
    "ElementaryModule",
    "FiniteAbelianGroup",
    "FitResult",
    "GenericDescent",
    "Grade",
    "IntPoly",
    "LPower",
    "MirrorReport",
    "MirrorSide",
    "ModuleElement",
    "OrderSequence",
    "ParamTriple",
    "Prime",
    "RunSpec",
    "Scenario",
    "ScenarioParseError",
    "SpecialDescent",
    "StructuralInvariants",
    "UltimatelyConstant",
    "Unbounded",
    "ValidationReport",
    "VerificationReport",
    "as_prime",
    "builtin_scenario",
    "classify_case",
    "codescent_defect",
    "cyclotomic_factors",
    "default_level_range",
    "defect_bound",
    "enumeration_oracle",
    "fit_parameters",
    "full_span_scenario",
    "is_distinguished",
    "lambda_floor_holds",
    "mirror_check",
    "mirror_context_for_full_span",
    "monomial",
    "order_sequence",
    "order_valuation",
    "parse_run",
    "predict_parameters",
    "quotient_group",
    "replicated_full_span_scenario",
    "require_valid",
    "scenario_names",
    "serialize_run",
    "special_demo_scenario",
    "structural_invariants",
    "tower_poly",
    "tower_ratio",
    "trivial_demo_scenario",
    "validate_descent",
    "verify_prediction",
    "zero_element",
]

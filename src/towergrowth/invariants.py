"""Structural invariants, codescent defect, and predicted growth parameters.

An elementary module carries three integers: the free rank, the total
l-exponent of its l-power torsion factors, and the total degree of its
distinguished-polynomial torsion factors.  For a module with descent data the
order valuations x(n, k) eventually follow

    x(n, k) = rho * n * l^n + mu * l^n + lam_tilde * n + (bounded term)

and this module computes the predicted (rho, mu, lam_tilde) together with a
grade saying whether the bounded term is ultimately constant (strict) or only
has bounded spread.

The generic case subtracts a codescent defect from the distinguished-degree
invariant.  The defect is a sum over the irreducible factors c of the level-e
tower polynomial: each contributes deg(c) times the rank over the field
Q[x]/(c) of the free-part coordinates of the descent generators, computed as
the integer rank of their blocks of multiplication on Z[x]/(c).  This matches
the rank over the corresponding l-adic field because rank is preserved under
extension of the ground field, and every c here is irreducible in both.
"""

from __future__ import annotations

import dataclasses
import enum

from .linalg import diagonal_entries
from .modules import (
    CaseTag,
    DescentDatum,
    DistinguishedFactor,
    ElementaryModule,
    GenericDescent,
    LPower,
    classify_case,
)
from .polynomials import cyclotomic_factors, multiplication_matrix


@dataclasses.dataclass(frozen=True)
class StructuralInvariants:
    """Free rank, total l-power exponent, total distinguished degree."""

    free_rank: int
    mu: int
    lam: int


def structural_invariants(module: ElementaryModule) -> StructuralInvariants:
    mu = 0
    lam = 0
    for factor in module.torsion_factors:
        if isinstance(factor, LPower):
            mu += factor.exponent
        else:
            lam += factor.poly.degree
    return StructuralInvariants(free_rank=module.free_rank, mu=mu, lam=lam)


class Grade(enum.Enum):
    """How tight the asymptotic formula is expected to be."""

    STRICT = "strict"  # residual term is ultimately constant
    BOUNDED = "bounded"  # residual term only has bounded spread


@dataclasses.dataclass(frozen=True)
class ParamTriple:
    """Asymptotic parameters (rho, mu, lam_tilde) with a tightness grade.

    ``nu`` is the eventual constant residual when one is known.
    """

    rho: int
    mu: int
    lam_tilde: int
    grade: Grade
    nu: int | None = None

    def __post_init__(self) -> None:
        if self.rho < 0 or self.mu < 0:
            raise ValueError("rho and mu are nonnegative")

    def same_triple(self, other: "ParamTriple") -> bool:
        return (
            self.rho == other.rho
            and self.mu == other.mu
            and self.lam_tilde == other.lam_tilde
        )


def codescent_defect(module: ElementaryModule, descent: DescentDatum) -> int:
    """Defect subtracted from the distinguished degree in the generic case.

    Zero for special and trivial descent data.  Otherwise the sum, over the
    irreducible factors c of the level-e tower polynomial, of the rank over Q
    of the rows T^j * g mod c (j < deg c, the free coordinates of a generator
    g side by side), which is deg(c) times the rank over Q[x]/(c).
    """
    if classify_case(module, descent) is not CaseTag.GENERIC:
        return 0
    assert isinstance(descent, GenericDescent)
    ell = module.prime.value
    total = 0
    for c in cyclotomic_factors(module.prime, descent.level):
        rows = []
        for gen in descent.generators:
            blocks = [multiplication_matrix(coord, c) for coord in gen.coords[: module.free_rank]]
            rows.extend([x for col in cols for x in col] for cols in zip(*blocks))
        # the j = 0 rows span a subspace, so full rank there is the answer
        rank = len(diagonal_entries(rows[:: c.degree], ell))
        if rank < module.free_rank * c.degree:
            rank = len(diagonal_entries(rows, ell))
        total += rank
    return total


def defect_bound(module: ElementaryModule, descent: DescentDatum) -> int:
    """Largest value the codescent defect can take for this shape of data."""
    if not isinstance(descent, GenericDescent):
        return 0
    return module.free_rank * module.prime.value**descent.level


def predict_parameters(module: ElementaryModule, descent: DescentDatum) -> ParamTriple:
    """Predicted (rho, mu, lam_tilde) and grade for the given descent data."""
    inv = structural_invariants(module)
    case = classify_case(module, descent)
    if case is CaseTag.SPECIAL:
        return ParamTriple(inv.free_rank, inv.mu, inv.lam + 1, Grade.STRICT)
    if case is CaseTag.TRIVIAL:
        return ParamTriple(inv.free_rank, inv.mu, inv.lam, Grade.STRICT)
    kappa = codescent_defect(module, descent)
    return ParamTriple(inv.free_rank, inv.mu, inv.lam - kappa, Grade.BOUNDED)

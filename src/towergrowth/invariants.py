"""Structural invariants, codescent defect, and predicted growth parameters.

An elementary module carries three integers: the free rank, the total
l-exponent of its l-power torsion factors, and the total degree of its
distinguished-polynomial torsion factors.  For a module with descent data the
order valuations x(n, k) eventually follow

    x(n, k) = rho * (n + k) * l^n + mu * l^n + lam_tilde * n + (bounded term)

and this module computes the predicted (rho, mu, lam_tilde) together with a
grade saying whether the bounded term is ultimately constant (strict) or only
has bounded spread.

The generic case subtracts a codescent defect from the distinguished-degree
invariant: the rank over Q of the descent generators' free coordinates in
E / tower_poly(l, e)·E.  Validation's one elimination of the datum
(``modules._reduction``) pivots those free rows first and counts it, so the
defect is read off that memo and runs no elimination of its own.  For valid
data this equals the per-factor count of the paper, the sum over the
irreducible factors c of tower_poly(l, e) of deg(c) times the rank over the
field Q[x]/(c); ``codescent_defect`` says why.
"""

from __future__ import annotations

import dataclasses
import enum

from .modules import (
    CaseTag,
    DescentDatum,
    ElementaryModule,
    GenericDescent,
    LPower,
    _reduction,
    classify_case,
)


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

    Zero for special and trivial descent data.  Otherwise the rank over Q of
    the generators' free coordinates mod tower_poly(l, e): the free rows of
    the level-e presentation, whose unit pivots validation's elimination
    takes first (``modules._reduction``), counting the rank of whatever
    Schur complement they leave.  A generator of the wrong shape raises the
    ``ValueError`` that ``validate_descent`` raises.

    The data are assumed valid (``validate_descent``), and the rank is the
    defect only then: the span of valid generators mod tower_poly(l, e) is
    T-stable, so its free part is a Q[T]-submodule of (Q[T]/tower_poly)^r.
    Since Q[T]/tower_poly(l, e) is the product of the fields Q[T]/(c) over
    the distinct irreducible factors c, such a submodule splits over the
    factors, and its dimension is the sum over c of deg(c) times its rank
    over Q[T]/(c).  Rank is preserved under extension of the ground field,
    so this is also the count over the l-adic fields.
    """
    return _reduction(module, descent).kappa


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

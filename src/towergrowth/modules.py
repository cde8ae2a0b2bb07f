"""Elementary modules over the power-series ring in T, and descent data.

An elementary module is a finite direct sum

    E = (free part)^rho  +  sum_i  (cyclic torsion factor_i),

where each torsion factor is cut out either by a power of the prime
(``LPower``) or by a distinguished polynomial (``DistinguishedFactor``).
Elements are tuples of polynomial coordinates, free coordinates first.

Descent data describe how a tower of finite quotients is carved out of E:
either the split ``SpecialDescent`` (no further data), or
``GenericDescent(level, generators)`` where the generators span the extra
relation submodule Y at level e.  Generic data are *valid* when the span of
Y together with tower_poly(l, e)·E is stable under multiplication by T,
equivalently when each T·y is an l-locally integral combination of the Y
images inside E / tower_poly(l, e)·E.  ``validate_descent`` decides this
exactly and produces a witness when it fails.
"""

from __future__ import annotations

import dataclasses
import enum

from .linalg import span_invariants
from .polynomials import (
    IntPoly,
    Prime,
    as_prime,
    is_distinguished,
    multiplication_matrix,
    tower_poly,
)


@dataclasses.dataclass(frozen=True)
class LPower:
    """Cyclic torsion factor killed by l^exponent."""

    exponent: int

    def __post_init__(self) -> None:
        if self.exponent < 1:
            raise ValueError("l-power exponent must be at least 1")


@dataclasses.dataclass(frozen=True)
class DistinguishedFactor:
    """Cyclic torsion factor killed by a distinguished polynomial."""

    poly: IntPoly


TorsionFactor = LPower | DistinguishedFactor


@dataclasses.dataclass(frozen=True)
class ElementaryModule:
    prime: Prime
    free_rank: int
    torsion_factors: tuple[TorsionFactor, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "prime", as_prime(self.prime))
        object.__setattr__(self, "torsion_factors", tuple(self.torsion_factors))
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for factor in self.torsion_factors:
            if isinstance(factor, DistinguishedFactor):
                if factor.poly.degree < 1:
                    raise ValueError("distinguished factor needs degree >= 1")
                if not is_distinguished(factor.poly, self.prime):
                    raise ValueError(
                        f"{factor.poly} is not distinguished for l={self.prime.value}"
                    )
            elif not isinstance(factor, LPower):
                raise TypeError(f"unknown torsion factor {factor!r}")

    @property
    def coordinate_count(self) -> int:
        return self.free_rank + len(self.torsion_factors)

    @property
    def is_zero(self) -> bool:
        return self.coordinate_count == 0


@dataclasses.dataclass(frozen=True)
class ModuleElement:
    """Element of an elementary module: one polynomial per coordinate."""

    free_coords: tuple[IntPoly, ...] = ()
    torsion_coords: tuple[IntPoly, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "free_coords", tuple(self.free_coords))
        object.__setattr__(self, "torsion_coords", tuple(self.torsion_coords))

    @property
    def coords(self) -> tuple[IntPoly, ...]:
        return self.free_coords + self.torsion_coords

    def times_t(self) -> ModuleElement:
        return ModuleElement(
            tuple(c.shift(1) for c in self.free_coords),
            tuple(c.shift(1) for c in self.torsion_coords),
        )

    def __add__(self, other: ModuleElement) -> ModuleElement:
        return ModuleElement(
            tuple(a + b for a, b in zip(self.free_coords, other.free_coords, strict=True)),
            tuple(a + b for a, b in zip(self.torsion_coords, other.torsion_coords, strict=True)),
        )


def zero_element(module: ElementaryModule) -> ModuleElement:
    return ModuleElement(
        (IntPoly(),) * module.free_rank,
        (IntPoly(),) * len(module.torsion_factors),
    )


@dataclasses.dataclass(frozen=True)
class SpecialDescent:
    """Split descent: the tower quotients pick up one full cyclic summand."""


@dataclasses.dataclass(frozen=True)
class GenericDescent:
    """Descent through level e with extra relation generators Y."""

    level: int
    generators: tuple[ModuleElement, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
        if self.level < 0:
            raise ValueError("descent level must be nonnegative")


DescentDatum = SpecialDescent | GenericDescent


class CaseTag(enum.Enum):
    SPECIAL = "special"
    TRIVIAL = "trivial"
    GENERIC = "generic"


def classify_case(module: ElementaryModule, descent: DescentDatum) -> CaseTag:
    """Special / trivial (generic with no generators) / generic."""
    if isinstance(descent, SpecialDescent):
        return CaseTag.SPECIAL
    if not descent.generators:
        return CaseTag.TRIVIAL
    return CaseTag.GENERIC


def canonicalize(module: ElementaryModule, element: ModuleElement) -> ModuleElement:
    """Reduce torsion coordinates to their canonical representatives.

    Distinguished coordinates become the integer remainder mod the factor
    polynomial; l-power coordinates get coefficients reduced into
    [0, l^m).  Free coordinates are untouched.
    """
    _check_shape(module, element)
    ell = module.prime.value
    reduced = []
    for coord, factor in zip(element.torsion_coords, module.torsion_factors):
        if isinstance(factor, LPower):
            reduced.append(coord.reduce_coeffs(ell**factor.exponent))
        else:
            reduced.append(coord % factor.poly)
    return ModuleElement(element.free_coords, tuple(reduced))


@dataclasses.dataclass(frozen=True)
class ValidationReport:
    valid: bool
    failing_generator: int | None = None
    witness: ModuleElement | None = None
    detail: str = ""


def _check_shape(module: ElementaryModule, element: ModuleElement) -> None:
    if len(element.free_coords) != module.free_rank or len(
        element.torsion_coords
    ) != len(module.torsion_factors):
        raise ValueError(
            "element has "
            f"{len(element.free_coords)}+{len(element.torsion_coords)} coordinates, "
            f"module needs {module.free_rank}+{len(module.torsion_factors)}"
        )


def _residue_vector(module: ElementaryModule, element: ModuleElement, level: int) -> list[int]:
    """Coordinates of the element in E / tower_poly(l, e)·E.

    Basis: the monomials T^0..T^(l^e - 1) in each coordinate, free blocks
    first.  Entries stay exact integers; no residue reduction beyond the
    polynomial one.
    """
    w = tower_poly(module.prime, level)
    block = module.prime.value**level
    vec: list[int] = []
    for coord in element.coords:
        r = coord % w
        vec.extend(r.coeff(i) for i in range(block))
    return vec


def _quotient_relation_columns(module: ElementaryModule, level: int) -> list[list[int]]:
    """Generators of the torsion-factor relations inside E / tower_poly·E."""
    ell = module.prime.value
    w = tower_poly(module.prime, level)
    block = ell**level
    dim = module.coordinate_count * block
    columns: list[list[int]] = []
    for idx, factor in enumerate(module.torsion_factors):
        offset = (module.free_rank + idx) * block
        ann = IntPoly((ell**factor.exponent,)) if isinstance(factor, LPower) else factor.poly
        for part in multiplication_matrix(ann, w):
            col = [0] * dim
            col[offset : offset + block] = part
            columns.append(col)
    return columns


def validate_descent(module: ElementaryModule, descent: DescentDatum) -> ValidationReport:
    """Decide Λ-stability of the descent datum.

    Special data and generator-free generic data are always valid.  For each
    generator y the image of T·y must lie in the l-local span of the Y images
    inside E / tower_poly(l, e)·E.  All images are tested at once; only on
    failure are they tested one by one against the span's invariants from
    that comparison, and the first failing T·y is the witness.
    """
    if isinstance(descent, SpecialDescent):
        return ValidationReport(True, detail="special descent carries no generators")
    for gen in descent.generators:
        _check_shape(module, gen)
    if not descent.generators:
        return ValidationReport(True, detail="no generators: trivial case")
    level = descent.level
    span = [_residue_vector(module, g, level) for g in descent.generators]
    span += _quotient_relation_columns(module, level)
    images = [_residue_vector(module, g.times_t(), level) for g in descent.generators]
    ell = module.prime.value
    base = span_invariants(span, ell)
    if base != span_invariants(span + images, ell):
        for idx, (gen, image) in enumerate(zip(descent.generators, images)):
            if span_invariants([*span, image], ell) != base:
                return ValidationReport(
                    False,
                    failing_generator=idx,
                    witness=canonicalize(module, gen.times_t()),
                    detail=(
                        f"T * generator {idx} is not an l-local combination of the "
                        f"generators at level {level}"
                    ),
                )
    return ValidationReport(True, detail=f"{len(descent.generators)} generators stable")


def require_valid(module: ElementaryModule, descent: DescentDatum) -> None:
    report = validate_descent(module, descent)
    if not report.valid:
        raise ValueError(f"invalid descent datum: {report.detail}")

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

Validation, the codescent defect and the level-n quotients all read one
presentation of E / tower_poly(l, e)·E by integer blocks, ``_presentation``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from collections.abc import Sequence

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


_Block = tuple[IntPoly, IntPoly | None, list[IntPoly]]


def _presentation(
    module: ElementaryModule, elements: Sequence[ModuleElement], level: int
) -> dict[int, _Block]:
    """E / tower_poly(l, e)·E as blocks per coordinate, with the elements' parts.

    A block (modulus, relation, parts) is Z[T]/(modulus), free on the powers
    of T below deg(modulus), cut by the relation; parts are the elements'
    polynomials there, reduced mod the modulus.  Lambda/(P) is Z[T]/(P) cut by
    omega_e = tower_poly(l, e), deg P rows by Weierstrass preparation.  A free
    or Lambda/(l^m) coordinate in which some element is nonzero is
    Z[T]/(omega_e), cut by l^m (free: no relation); the others get no block.
    """
    omega = tower_poly(module.prime, level)
    factors = (None,) * module.free_rank + module.torsion_factors
    blocks = {}
    for idx, factor in enumerate(factors):
        coords = [el.coords[idx] for el in elements]
        if isinstance(factor, DistinguishedFactor):
            modulus, relation = factor.poly, omega
        elif any(not c.is_zero for c in coords):
            modulus, relation = omega, None
            if isinstance(factor, LPower):
                relation = IntPoly((module.prime.value**factor.exponent,))
        else:
            continue
        blocks[idx] = (modulus, relation, [c % modulus for c in coords])
    return blocks


def _stack(blocks: dict[int, _Block]) -> tuple[list[list[int]], list[list[int]]]:
    """Relation columns T^j·relation mod modulus, then one column per element."""
    sizes = [modulus.degree for modulus, _, _ in blocks.values()]
    relations = [
        [0] * sum(sizes[:i]) + part + [0] * sum(sizes[i + 1 :])
        for i, (modulus, relation, _) in enumerate(blocks.values())
        if relation is not None
        for part in multiplication_matrix(relation, modulus)
    ]
    elements = [
        [p.coeff(i) for (m, _, _), p in zip(blocks.values(), parts) for i in range(m.degree)]
        for parts in zip(*(parts for _, _, parts in blocks.values()))
    ]
    return relations, elements


def validate_descent(module: ElementaryModule, descent: DescentDatum) -> ValidationReport:
    """Decide Λ-stability of the descent datum.

    Special data and generator-free generic data are always valid.  For each
    generator y the image of T·y must lie in the l-local span of the Y images
    and the torsion relations in ``_presentation``.  All images are tested at
    once; only on failure are they tested one by one against the span's
    invariants from that comparison, and the first failing T·y is the
    witness.  Reports are memoised on the frozen arguments behind this plain
    function, which tracing wrappers can still replace, so the quotient
    functions validate once per (module, descent) pair.
    """
    return _validate_descent(module, descent)


@functools.lru_cache(maxsize=64)
def _validate_descent(module: ElementaryModule, descent: DescentDatum) -> ValidationReport:
    if isinstance(descent, SpecialDescent):
        return ValidationReport(True, detail="special descent carries no generators")
    gens = descent.generators
    for gen in gens:
        _check_shape(module, gen)
    if not gens:
        return ValidationReport(True, detail="no generators: trivial case")
    blocks = _presentation(module, [*gens, *(g.times_t() for g in gens)], descent.level)
    relations, columns = _stack(blocks)
    span, images = columns[: len(gens)] + relations, columns[len(gens) :]
    ell = module.prime.value
    base = span_invariants(span, ell)
    if base != span_invariants(span + images, ell):
        for idx, (gen, image) in enumerate(zip(gens, images)):
            if span_invariants([*span, image], ell) != base:
                return ValidationReport(
                    False,
                    failing_generator=idx,
                    witness=canonicalize(module, gen.times_t()),
                    detail=(
                        f"T * generator {idx} is not an l-local combination of the "
                        f"generators at level {descent.level}"
                    ),
                )
    return ValidationReport(True, detail=f"{len(gens)} generators stable")


def require_valid(module: ElementaryModule, descent: DescentDatum) -> None:
    report = validate_descent(module, descent)
    if not report.valid:
        raise ValueError(f"invalid descent datum: {report.detail}")

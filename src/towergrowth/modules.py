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
memoised reduction per (module, descent) pair, ``_reduction``: the integer
matrix of E / tower_poly(l, e)·E and one elimination of it, which gives the
validation report, the defect and the matrix's elementary divisors.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from collections import defaultdict, namedtuple
from collections.abc import Sequence

from .linalg import span_elimination
from .polynomials import (
    IntPoly,
    Prime,
    as_prime,
    is_distinguished,
    multiplication_matrix,
    residue,
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
            reduced.append(IntPoly(residue(coord.coeffs, factor.poly)))
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


def _block_coordinates(module: ElementaryModule, generators: Sequence[ModuleElement]) -> list[int]:
    """The coordinates with a block: each distinguished one, each free one in
    which some generator is nonzero, and each Lambda/(l^m) one in which some
    generator is nonzero mod l^m."""
    ell, factors = module.prime.value, (None,) * module.free_rank + module.torsion_factors
    blocks = []
    for idx, factor in enumerate(factors):
        parts = (g.coords[idx].coeffs for g in generators)
        if isinstance(factor, LPower):
            q = ell**factor.exponent
            parts = (any(x % q for x in part) for part in parts)
        if isinstance(factor, DistinguishedFactor) or any(parts):
            blocks.append(idx)
    return blocks


def _presentation(module: ElementaryModule, descent: DescentDatum) -> tuple:
    """E / tower_poly(l, e)·E by integer blocks: (layout, relations, columns).

    The layout lists (coordinate, first row, modulus) per block: Z[T]/(modulus)
    on the powers of T below deg(modulus), cut by its relation columns.
    Lambda/(P) is Z[T]/(P) cut by omega_e = tower_poly(l, e), deg P rows by
    Weierstrass preparation; a free or Lambda/(l^m) coordinate of
    ``_block_coordinates`` is Z[T]/(omega_e) cut by l^m (free: uncut).  Each
    generator is one column of its ``_part`` per block, reduced mod l^m in a
    Lambda/(l^m) block, whose l^m·T^j columns absorb the rest; without
    generators e is 0.  Every column is a ``{row: entry}`` dict of its
    nonzero entries, the kernel's format.
    """
    gens = descent.generators if isinstance(descent, GenericDescent) else ()
    omega = tower_poly(module.prime, descent.level if gens else 0)
    ell, factors = module.prime.value, (None,) * module.free_rank + module.torsion_factors
    layout, relations, rows, cuts = [], [], 0, {}
    for idx in _block_coordinates(module, gens):
        factor = factors[idx]
        modulus = factor.poly if isinstance(factor, DistinguishedFactor) else omega
        if isinstance(factor, LPower):  # cut by l^m: the columns l^m·T^j
            cuts[idx] = ell**factor.exponent
            relations += [{r: cuts[idx]} for r in range(rows, rows + modulus.degree)]
        elif factor is not None:  # cut by omega_e; a free block is uncut
            parts = multiplication_matrix(omega.coeffs, modulus)
            relations += [{r: x for r, x in enumerate(part, rows) if x} for part in parts]
        layout.append((idx, rows, modulus))
        rows += modulus.degree
    columns = [
        {
            r: x
            for i, at, m in layout
            for r, x in enumerate(_part(g.coords[i].coeffs, m, cuts.get(i)), at)
            if x
        }
        for g in gens
    ]
    return tuple(layout), relations, columns


def _part(coeffs: tuple[int, ...], modulus: IntPoly, q: int | None) -> Sequence[int]:
    """coeffs mod the modulus, and into [0, q) if q is given: the coefficients
    themselves when there are no more of them than its degree, else their
    ``residue``."""
    if len(coeffs) > modulus.degree:
        return residue(coeffs, modulus, q)
    return coeffs if q is None else [x % q for x in coeffs]


def _product(column: dict[int, int], images: dict[int, tuple], q: int | None = None) -> dict:
    """M·column, its nonzero entries reduced into [0, q) if q is given, for the
    matrix M whose column r is images[r] = (first row, entries from it on),
    or the unit vector at r when r is not a key."""
    product: defaultdict[int, int] = defaultdict(int)
    for r, x in column.items():
        first, part = images.get(r, (r, (1,)))
        for s, y in enumerate(part, first):
            product[s] += x * y
    return {r: y for r, x in product.items() if (y := x if q is None else x % q)}


# the level-e presentation, the validation report, the codescent defect and
# the l-valuations of the presentation's nonzero elementary divisors
_Reduction = namedtuple("_Reduction", "layout relations columns report kappa valuations")


@functools.lru_cache(maxsize=16)
def _reduction(module: ElementaryModule, descent: DescentDatum) -> _Reduction:
    """One elimination of the datum's ``_presentation``, memoised, after its
    generators' shapes are checked.  Without generators nothing is
    eliminated.

    Otherwise the image of T·y, one fold step on each generator column, must
    lie in the l-local span of the generator and relation columns.  One
    ``span_elimination`` of that span carries all the images, and the first
    one outside it is the witness.  It pivots the free rows first: their rank
    over Q is the defect (``invariants.codescent_defect``).  Its valuations
    are exact and the other rows are zero divisors, so a window without a
    distinguished block reads every level off them (``quotients``).  No
    caller changes a column in place.
    """
    gens = descent.generators if isinstance(descent, GenericDescent) else ()
    for gen in gens:
        _check_shape(module, gen)
    layout, relations, columns = _presentation(module, descent)
    if not gens:
        if isinstance(descent, SpecialDescent):
            report = ValidationReport(True, detail="special descent carries no generators")
        else:
            report = ValidationReport(True, detail="no generators: trivial case")
        return _Reduction(layout, relations, columns, report, 0, [])
    # T·e_r = e_(r+1) inside a block; at its top row T^deg folds back by the modulus
    shift = {r: (r + 1, (1,)) for r in range(sum(m.degree for _, _, m in layout))}
    shift.update((i + m.degree - 1, (i, [-b for b in m.coeffs[:-1]])) for _, i, m in layout)
    images = [_product(col, shift) for col in columns]
    free = sum(m.degree for idx, _, m in layout if idx < module.free_rank)  # free blocks first
    valuations, members, kappa = span_elimination(
        columns + relations, len(shift), module.prime.value, images, range(free)
    )
    if all(members):
        report = ValidationReport(True, detail=f"{len(gens)} generators stable")
    else:
        idx = members.index(False)
        report = ValidationReport(
            False,
            failing_generator=idx,
            witness=canonicalize(module, gens[idx].times_t()),
            detail=(
                f"T * generator {idx} is not an l-local combination of the "
                f"generators at level {descent.level}"
            ),
        )
    return _Reduction(layout, relations, columns, report, kappa, valuations)


def validate_descent(module: ElementaryModule, descent: DescentDatum) -> ValidationReport:
    """Decide Λ-stability of the descent datum.

    Special data and generator-free generic data are always valid.  For each
    generator y the image of T·y must lie in the l-local span of the
    generator and relation columns of the level-e presentation; the first
    failing T·y is the witness.  The report is read off the datum's memoised
    reduction (``_reduction``) behind this plain function, which tracing
    wrappers can still replace, so a (module, descent) pair is eliminated
    once for validation, the defect and the quotients.
    """
    return _reduction(module, descent).report


def require_valid(module: ElementaryModule, descent: DescentDatum) -> None:
    report = validate_descent(module, descent)
    if not report.valid:
        raise ValueError(f"invalid descent datum: {report.detail}")

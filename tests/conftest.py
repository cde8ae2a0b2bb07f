"""Shared fixtures: a seeded corpus of randomized valid generic descent data.

The corpus is built constructively so that validity is guaranteed by design,
not by rejection alone.  At level e the tower polynomial factors into
distinct irreducible pieces; for any subset with product h and cofactor
h' = tower_poly/h, the elements T^j * h' for j < deg(h) span an ideal of the
level-e quotient that is carried into itself by T.  Per-coordinate copies of
such spans are therefore valid generators, the free-coordinate copies each
contribute deg(h) to the codescent defect, and the torsion-coordinate copies
contribute nothing.  Padding any generator with multiples of the tower
polynomial in free coordinates or multiples of the annihilator in torsion
coordinates changes neither validity nor the defect.  On top of that, at
level e = 0 every generator set whatsoever is valid because multiplication
by T kills the level-0 quotient, so fully random generators are mixed in
there.
"""

import dataclasses
import random

import pytest

from towergrowth import (
    DistinguishedFactor,
    ElementaryModule,
    GenericDescent,
    IntPoly,
    LPower,
    ModuleElement,
    cyclotomic_factors,
    linalg,
    modules,
    monomial,
    quotients,
    tower_poly,
)
from towergrowth.linalg import span_invariants
from towergrowth.polynomials import ONE, ZERO

CORPUS_SEED = 20260819
CORPUS_SIZE = 110
MAX_GENERATORS = 4


def in_local_span(columns: list[list[int]], target: list[int], ell: int) -> bool:
    """Whether target = W x is solvable with denominators prime to l.

    columns are the generators W (each a vector); membership is decided by
    comparing the span invariants of W and [W | target].  This is the
    one-vector-at-a-time definition the batched validation is checked against.
    """
    return span_invariants(columns, ell) == span_invariants([*columns, target], ell)


@dataclasses.dataclass(frozen=True)
class CorpusCase:
    module: ElementaryModule
    descent: GenericDescent
    expected_defect: int | None  # None when only the bounds are known


def _random_poly(rng: random.Random, max_deg: int, lo: int = -3, hi: int = 3) -> IntPoly:
    return IntPoly(tuple(rng.randint(lo, hi) for _ in range(max_deg + 1)))


def _random_distinguished(rng: random.Random, ell: int) -> IntPoly:
    deg = rng.randint(1, 2)
    coeffs = [ell * rng.randint(0, 2) for _ in range(deg)] + [1]
    if all(c == 0 for c in coeffs[:-1]):
        coeffs[0] = ell
    return IntPoly(tuple(coeffs))


def _random_module(rng: random.Random, ell: int = 2) -> ElementaryModule:
    free_rank = rng.randint(0, 2)
    factors = []
    for _ in range(rng.randint(0, 2)):
        if rng.random() < 0.5:
            factors.append(LPower(exponent=rng.randint(1, 2)))
        else:
            factors.append(DistinguishedFactor(poly=_random_distinguished(rng, ell)))
    return ElementaryModule(prime=ell, free_rank=free_rank, torsion_factors=tuple(factors))


def _pad(
    rng: random.Random,
    module: ElementaryModule,
    level: int,
    free: list[IntPoly],
    torsion: list[IntPoly],
) -> ModuleElement:
    """Add span-invisible noise: tower-polynomial multiples in free
    coordinates, annihilator multiples in torsion coordinates."""
    omega = tower_poly(module.prime, level)
    for i in range(len(free)):
        if rng.random() < 0.3:
            free[i] = free[i] + omega * _random_poly(rng, 0)
    for i, factor in enumerate(module.torsion_factors):
        if rng.random() < 0.3:
            ann = (
                IntPoly((module.prime.value**factor.exponent,))
                if isinstance(factor, LPower)
                else factor.poly
            )
            torsion[i] = torsion[i] + ann * _random_poly(rng, 1)
    return ModuleElement(free_coords=tuple(free), torsion_coords=tuple(torsion))


def build_generic_case(rng: random.Random, ell: int = 2) -> CorpusCase:
    module = _random_module(rng, ell)
    level = rng.randint(0, 2)
    pieces = list(cyclotomic_factors(ell, level))
    budget = MAX_GENERATORS
    gens: list[ModuleElement] = []
    defect = 0
    known = True

    if level == 0 and rng.random() < 0.35 and module.coordinate_count > 0:
        # at level zero anything is valid; the expected defect is unknown
        known = False
        for _ in range(rng.randint(1, budget)):
            coords = [_random_poly(rng, 2) for _ in range(module.coordinate_count)]
            gens.append(
                ModuleElement(
                    free_coords=tuple(coords[: module.free_rank]),
                    torsion_coords=tuple(coords[module.free_rank :]),
                )
            )
        budget = 0

    coordinates = list(range(module.coordinate_count))
    rng.shuffle(coordinates)
    for coord in coordinates:
        if budget <= 0:
            break
        if rng.random() < 0.4:
            continue
        subset = [p for p in pieces if rng.random() < 0.5]
        span_deg = sum(p.degree for p in subset)
        if span_deg == 0 or span_deg > budget:
            continue
        cofactor = ONE
        for p in pieces:
            if p not in subset:
                cofactor = cofactor * p
        for j in range(span_deg):
            free = [ZERO] * module.free_rank
            torsion = [ZERO] * len(module.torsion_factors)
            if coord < module.free_rank:
                free[coord] = monomial(j) * cofactor
            else:
                torsion[coord - module.free_rank] = monomial(j) * cofactor
            gens.append(_pad(rng, module, level, free, torsion))
        budget -= span_deg
        if coord < module.free_rank:
            defect += span_deg

    if budget > 0 and rng.random() < 0.25:
        # generator that lies entirely inside the always-absorbed part
        free = [tower_poly(module.prime, level) * _random_poly(rng, 0) for _ in range(module.free_rank)]
        torsion = []
        for factor in module.torsion_factors:
            ann = (
                IntPoly((module.prime.value**factor.exponent,))
                if isinstance(factor, LPower)
                else factor.poly
            )
            torsion.append(ann * _random_poly(rng, 0))
        gens.append(
            ModuleElement(free_coords=tuple(free), torsion_coords=tuple(torsion))
        )

    rng.shuffle(gens)
    descent = GenericDescent(level=level, generators=tuple(gens))
    return CorpusCase(
        module=module,
        descent=descent,
        expected_defect=defect if known else None,
    )


@pytest.fixture(scope="session")
def generic_corpus() -> list[CorpusCase]:
    rng = random.Random(CORPUS_SEED)
    return [build_generic_case(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture
def kernel_shapes(monkeypatch) -> list[tuple[int, int]]:
    """(rows, columns) of every matrix the quotient path hands to the
    elimination kernel, in call order."""
    shapes: list[tuple[int, int]] = []
    kernel = quotients.divisor_valuations

    def recording(rows, *args):
        shapes.append((len(rows), len(rows[0]) if rows else 0))
        return kernel(rows, *args)

    monkeypatch.setattr(quotients, "divisor_valuations", recording)
    return shapes


@pytest.fixture
def span_shapes(monkeypatch) -> list[tuple[int, int]]:
    """(rows, columns) of every matrix ``span_invariants`` hands to the
    elimination kernel, in call order.  Validation reports are memoised, so
    the memo is cleared first and every validation runs its spans."""
    shapes: list[tuple[int, int]] = []
    kernel = linalg.divisor_valuations

    def recording(rows, *args):
        shapes.append((len(rows), len(rows[0]) if rows else 0))
        return kernel(rows, *args)

    monkeypatch.setattr(linalg, "divisor_valuations", recording)
    modules._validate_descent.cache_clear()
    return shapes

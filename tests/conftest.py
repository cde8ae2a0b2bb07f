"""Shared fixtures: a seeded corpus of randomized valid generic descent data,
and the reference definitions the program's faster routes are checked against.

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
    SpecialDescent,
    cyclotomic_factors,
    linalg,
    modules,
    monomial,
    quotients,
    tower_poly,
)
from towergrowth.linalg import _hadamard_exponent, divisor_valuations, ell_valuation
from towergrowth.polynomials import ONE, ZERO

CORPUS_SEED = 20260819
CORPUS_SIZE = 110
MAX_GENERATORS = 4


def sparse_columns(rows: list[list[int]]) -> tuple[list[dict[int, int]], int]:
    """Dense rows as the kernel's input: the ``{row: entry}`` dict of each
    column's nonzero entries, and the number of rows."""
    width = len(rows[0]) if rows else 0
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(width)], len(rows)


def span_invariants(columns: list[dict], dimension: int, ell: int) -> tuple[int, int]:
    """Rank and total l-valuation of the Smith form of the matrix with these
    columns: one kernel run at the Hadamard exponent, whose folded valuations
    below it are the nonzero elementary divisors.  The one-pass route that
    ``linalg.span_elimination`` (two passes, free rows first) is checked
    against."""
    exponent = _hadamard_exponent(columns, dimension, ell)
    vals = [v for v in divisor_valuations(columns, dimension, ell, exponent) if v < exponent]
    return len(vals), sum(vals)


def in_local_span(columns: list[list[int]], target: list[int], ell: int) -> bool:
    """Whether target = W x is solvable with denominators prime to l.

    columns are the generators W (each a vector); membership is decided by
    comparing the span invariants of W and [W | target].  This is the
    one-vector-at-a-time definition that ``span_elimination`` and validation are
    checked against.
    """
    sparse = [{i: x for i, x in enumerate(col) if x} for col in [*columns, target]]
    dimension = len(target)
    return span_invariants(sparse[:-1], dimension, ell) == span_invariants(sparse, dimension, ell)


def first_level_over_by_multiplying(ell: int, count: int, cap: int) -> int | None:
    """Least m >= 0 with count * l^m > cap (None if there is none), by
    multiplying count by l until it passes the cap: the reference for
    ``quotients._first_level_over`` and ``linalg.ceil_log``."""
    m, size = 0, count
    while size <= cap:
        if size <= 0:
            return None
        m, size = m + 1, size * ell
    return m


def dense_divisor_valuations(rows: list[list[int]], ell: int, exponent: int) -> list[int]:
    """Dense elimination mod l^N, the reference for the sparse ``divisor_valuations``.

    Every entry is reduced into [0, l^N); each step scans the remaining
    submatrix for an entry of minimal valuation (smallest row, then smallest
    column), swaps it to the diagonal and clears the rows below it.  Returns
    the pivots' valuations in order, then the exponent for every row left.
    """
    if exponent < 1:
        raise ValueError("exponent must be at least 1")
    q = ell**exponent
    a = [[x % q for x in row] for row in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    diag: list[int] = []
    t = 0
    while t < m and t < n:
        # An entry beats the best so far only if the best's power of l does
        # not divide it, so valuations are computed only on improvement and
        # the scan ends at the first unit.
        best = None
        best_v = exponent
        bound = q
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                if row[j] % bound:
                    best_v = ell_valuation(row[j], ell)
                    best, bound = (i, j), ell**best_v
                    if best_v == 0:
                        break
            if best_v == 0:
                break
        if best is None:
            break
        pi, pj = best
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
        pivot = a[t][t:]
        inv_u = pow(pivot[0] // bound, -1, q)
        for i in range(t + 1, m):
            x = a[i][t]
            if x:
                f = (x // bound) * inv_u % q
                a[i][t:] = [(y - f * z) % q for y, z in zip(a[i][t:], pivot)]
        diag.append(best_v)
        t += 1
    return diag + [exponent] * (m - t)


def literal_order_valuation(module, descent, n: int, k: int) -> int:
    """x(n, k) from the literal level-n presentation, the reference that
    ``order_valuation`` is checked against past the enumeration's reach.

    The ambient is every coordinate in the monomial basis of Z[T]/(omega_n),
    coordinate_count * l^n rows.  Its relations are l^m * T^j and P * T^j
    for j < l^n and nu_{n,e} * y for each generator y (no T-shifts of Y), each
    an exact ``IntPoly`` product reduced by long division by omega_n; the
    kernel takes l^N with N = n + k.  So no split-off, no level-e matrix and
    no lift: it shares only ``tower_poly`` and the kernel with the engine.
    """
    ell, count = module.prime.value, module.coordinate_count
    block = ell**n
    omega = tower_poly(ell, n)

    def column(coords) -> dict[int, int]:
        # the rows of each (coordinate, polynomial) pair, reduced mod omega_n
        return {
            c * block + i: a
            for c, poly in coords
            for i, a in enumerate((poly % omega).coeffs)
            if a
        }

    columns = []
    for idx, factor in enumerate(module.torsion_factors):
        ann = IntPoly((ell**factor.exponent,)) if isinstance(factor, LPower) else factor.poly
        coord = module.free_rank + idx
        columns += [column([(coord, ann.shift(j))]) for j in range(block)]
    if isinstance(descent, GenericDescent) and descent.generators:
        nu = omega // tower_poly(ell, descent.level)
        columns += [column(enumerate(nu * c for c in gen.coords)) for gen in descent.generators]
    value = sum(divisor_valuations(columns, count * block, ell, n + k))
    return value + n + k if isinstance(descent, SpecialDescent) else value


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
def eliminations(monkeypatch) -> list[tuple[str, int, int, int]]:
    """Every elimination, in call order: validation's ``span_elimination``
    (and the kernel run it makes on a free-row remainder), the quotients'
    ``unit_pivots`` and ``divisor_valuations``.  Each is (function,
    dimension, columns, carried vectors); for ``unit_pivots`` the dimension
    is the number of rows it may pivot in.  The per-datum reduction is
    memoised, so the memo is cleared first and every validation runs its
    elimination."""
    calls: list[tuple[str, int, int, int]] = []

    def recording(name, f, shape):
        def wrapper(*args):
            calls.append((name, *shape(*args)))
            return f(*args)

        return wrapper

    def kernel_shape(columns, dimension, ell, exponent):
        return dimension, len(columns), 0

    def span_shape(columns, dimension, ell, vectors, rows):
        return dimension, len(columns), len(vectors)

    def pivots_shape(columns, rows, ell, exponent):
        return len(rows), len(columns), 0

    for module, name, shape in (
        (modules, "span_elimination", span_shape),
        (linalg, "divisor_valuations", kernel_shape),
        (quotients, "divisor_valuations", kernel_shape),
        (quotients, "unit_pivots", pivots_shape),
    ):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name), shape))
    modules._reduction.cache_clear()
    return calls

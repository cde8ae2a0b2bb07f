"""Finite tower quotients of an elementary module and their orders.

At level n with exponent shift k the quotient is

    E / ( nu * Y  +  omega_n * E  +  l^N * E ),   N = n + k,

where omega_n = tower_poly(l, n), nu = nu_{n,e} = omega_n / omega_e and Y is
the span of the descent generators (generic case; the special case instead
adds one full Z/l^N summand on top of the generator-free quotient).  The
level-e matrix of the datum's memoised reduction (``modules._reduction``;
level 0 without generators), relation columns then one column per
generator, is built once per datum, and level n is one product with it; no
block grows with n:

* the rows of a distinguished block Z[T]/(P) are multiplied by
  M(nu mod (P, l^N)), the ``multiplication_matrix`` of ``tower_residue_steps``:
  M(nu) * M(omega_e) = M(omega_n) and M(nu) * g = nu * g mod P;
* a free or l-power block Z[T]/(omega_e) stays as it is: multiplication by
  nu maps (Z/l^N)[T]/(omega_e) onto the Gal(K_n/K_e)-invariants of
  Z/l^N[Gamma_n], a direct summand of rank l^e that holds every part nu * g.
  The coordinate's other l^n - l^e rows split off in closed form, as factors
  of order l^N (free) or l^min(m, N) (Lambda/(l^m)); a coordinate without
  a block splits off whole, l^n such factors.

Each Y generator gives one column (Y is not T-stable as a set, so
generators get no shifts), and the l^N columns are folded into the
elimination kernel.  A quotient is a count {valuation: multiplicity}, the
split-off part two numbers per coordinate.

A window of levels is one reduction (``_quotients``).  The lift fixes every
row of a free or l-power block, and a Schur complement on a unit pivot in
such a row commutes with it, so ``linalg.unit_pivots`` clears those pivots
once, at the window's top precision l^(n_max + k), where they are exact mod
every lower power too.  Each level then lifts and reduces only what is left,
with nu carried from level to level by ``tower_residue_steps``.  Without a
distinguished block nothing changes between levels but N, and every level
reads the valuations of validation's one elimination of that matrix, so the
window makes no kernel call.

``check_window`` makes every refusal that reads no descent, in this order:
an empty window, n_min < 0, n_min + k < 1, then one cap on the full ambient
dimension coordinate_count * l^n (l^n for a module with no coordinate; not
the rows the kernel sees; it also bounds the factors ``quotient_group``
lists) and on the precision N.  Only then is the descent read: a window of
generic data with generators starts above e, a single level at e or above.
``check_presentation`` bounds the level-e data for a caller without a window.

``enumeration_oracle`` recomputes the same order by literal subgroup closure
in the full finite ambient module, l^n monomials in every coordinate, from
the exact level-n tower polynomial and tower ratio, with ``IntPoly`` products
and long division in place of the companion fold; it exists to cross-check
the engine.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Iterator
from itertools import islice

from .linalg import ceil_log, divisor_valuations, ell_valuation, unit_pivots
from .modules import (
    DescentDatum,
    DistinguishedFactor,
    ElementaryModule,
    GenericDescent,
    LPower,
    SpecialDescent,
    _block_coordinates,
    _product,
    _reduction,
    require_valid,
)
from .polynomials import (
    ZERO,
    IntPoly,
    multiplication_matrix,
    tower_poly,
    tower_ratio,
    tower_residue_steps,
)

DEFAULT_DIMENSION_CAP = 4096
DEFAULT_ELEMENT_CAP = 2**24


class CapExceeded(Exception):
    """A computation would exceed a configured resource cap."""


@dataclasses.dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian l-group given by the valuations of its cyclic factors."""

    divisor_valuations: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(sorted(self.divisor_valuations, reverse=True))
        if vals and vals[-1] < 1:
            raise ValueError("divisor valuations must be positive")
        object.__setattr__(self, "divisor_valuations", vals)

    @property
    def order_valuation(self) -> int:
        return sum(self.divisor_valuations)

    @property
    def is_trivial(self) -> bool:
        return not self.divisor_valuations


@dataclasses.dataclass(frozen=True)
class OrderSequence:
    """Contiguous run of order valuations x(n, k) for n in [n_min, n_min+len)."""

    prime: int
    shift: int
    level: int
    n_min: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("order sequence must be nonempty")
        if self.n_min < 0:
            raise ValueError("levels are nonnegative")
        if self.n_min + self.shift < 1:
            raise ValueError("every entry needs n + k >= 1")

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.values) - 1

    @property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(enumerate(self.values, start=self.n_min))

    def value_at(self, n: int) -> int:
        if not self.n_min <= n <= self.n_max:
            raise KeyError(n)
        return self.values[n - self.n_min]


def _first_level_over(ell: int, count: int, cap: int) -> int | None:
    """Least m >= 0 with count * l^m > cap (None if there is none), from the
    size of cap // count: no power of l past the cap is built."""
    if count <= 0:
        return 0 if count > cap else None
    return ceil_log(cap // count + 1, ell)


def check_window(module: ElementaryModule, n_min: int, n_max: int, k: int, cap: int) -> None:
    """Every refusal of a window that reads no descent, in this order: an empty
    window, n_min < 0, n_min + k < 1, then the ambient dimension
    coordinate_count * l^n and the precision N = n + k of every level against
    the cap, before any l^n or l^N is built.  A module with no coordinate has
    l^n in its place: its orders are 0, but validation builds tower_poly(l, e)
    below the window and the fitter l^n."""
    if n_min > n_max:
        raise ValueError(f"empty level range [{n_min}, {n_max}]")
    if n_min < 0:
        raise ValueError("level n must be nonnegative")
    if n_min + k < 1:
        raise ValueError(f"need n + k >= 1, got n={n_min}, k={k}")
    ell, count = module.prime.value, module.coordinate_count
    over = _first_level_over(ell, max(count, 1), cap)
    if over is not None and over <= n_max:
        n = max(over, n_min)
        if not count:
            raise CapExceeded(f"l^n = {ell}^{n} exceeds the cap {cap} at level n={n}")
        # past the first level over the cap, l^n may be too large to build
        dim = count * ell**n if n == over else f"{count}*{ell}^{n}"
        raise CapExceeded(f"ambient dimension {dim} exceeds the cap {cap} at level n={n}")
    if n_max + k > cap:
        n = max(n_min, cap + 1 - k)
        raise CapExceeded(f"precision N={n + k} exceeds the cap {cap} at level n={n}")


def check_presentation(module: ElementaryModule, descent: DescentDatum, cap: int) -> None:
    """The level-e data of generic descent against the cap, before validation
    builds them: deg P rows per distinguished block and l^e per other one of
    ``modules._block_coordinates``.  With no other block, tower_poly(l, e) and
    the defect bound free_rank * l^e still have size l^e."""
    if not isinstance(descent, GenericDescent):
        return
    ell, e = module.prime.value, descent.level
    distinguished = [f for f in module.torsion_factors if isinstance(f, DistinguishedFactor)]
    degree = sum(f.poly.degree for f in distinguished)
    grown = len(_block_coordinates(module, descent.generators)) - len(distinguished)
    if grown:
        over = _first_level_over(ell, grown, cap - degree)
        size = f"the level-{e} presentation needs {degree} + {grown}*{ell}^{e} rows"
    else:
        over = _first_level_over(ell, 1, cap)
        rank = module.free_rank
        size = f"tower_poly({ell}, {e}) has degree {ell}^{e} (defect bound {rank}*{ell}^{e})"
    if over is not None and over <= e:
        raise CapExceeded(f"{size}, above the cap {cap}")


def _quotients(
    module: ElementaryModule, descent: DescentDatum, n_min: int, n_max: int, k: int
) -> Iterator[Counter[int]]:
    """{valuation: multiplicity} of the level-n quotient for n_min <= n <= n_max,
    for a window whose levels and caps the caller has checked.

    Level n is the level-e matrix A times L_n = diag(I, M(nu_{n,e})), which
    fixes the rows of every free and l-power block, mod l^N with N = n + k.
    One elimination serves the window, whose top precision is l^(n_max + k):

    * without a distinguished block L_n = I, and validation's elimination
      of A (``modules._reduction``) already gave the valuations v of its
      nonzero elementary divisors, exactly; its other rows are zero
      divisors.  Level n reads min(v, N) off them and N for each zero
      divisor, with no kernel call;
    * otherwise ``unit_pivots`` clears every unit pivot in a fixed row, once
      for a window of two or more levels.  With A = [[a, r], [c, B]] on a
      unit a in a fixed row, L_n A keeps the row (a, r) and has L'c and L'B
      below it, so its Schur complement is L'(B - c a^-1 r): the complement
      commutes with the lift, and a unit pivot is exact mod l^N for every N
      up to the top.  So each level lifts the distinguished rows of the
      remainder only, building the columns of M(nu) for the rows that hold
      an entry, and runs the kernel on it mod l^N.  nu itself is carried
      from level to level by ``tower_residue_steps`` at the top precision,
      n_max steps in all.
    """
    require_valid(module, descent)
    e = descent.level if isinstance(descent, GenericDescent) and descent.generators else 0
    reduction = _reduction(module, descent)
    layout = reduction.layout
    ell = module.prime.value
    factors = (None,) * module.free_rank + module.torsion_factors
    rows = {idx: modulus.degree for idx, _, modulus in layout}
    # (first row, P) of each distinguished block
    lifts = [(i, m) for idx, i, m in layout if isinstance(factors[idx], DistinguishedFactor)]
    dimension = sum(rows.values())
    if lifts:
        top = n_max + k
        columns = [*reduction.relations, *reduction.columns]
        if n_max > n_min:  # one level's kernel clears these pivots itself
            fixed = [
                r
                for idx, i, m in layout
                if not isinstance(factors[idx], DistinguishedFactor)
                for r in range(i, i + m.degree)
            ]
            pivots, columns = unit_pivots(columns, fixed, ell, top)
            dimension -= pivots
        held = {r for col in columns for r in col}
        # per block: its first row, P, nu_{n,e} mod (P, l^top) from n = n_min
        # on, and its rows that hold an entry
        blocks = [
            (
                start,
                m,
                islice(tower_residue_steps(ell, e, m, ell**top), n_min - e, None),
                [r for r in range(start, start + m.degree) if r in held],
            )
            for start, m in lifts
        ]
    else:
        # the nonzero elementary divisors of A; its other rows are zero divisors
        valuations = reduction.valuations
        zeros = dimension - len(valuations)
    for n in range(n_min, n_max + 1):
        exponent = n + k
        counts: Counter[int] = Counter()
        for idx, factor in enumerate(factors):
            if not isinstance(factor, DistinguishedFactor):
                # a block is the rank-l^e summand (module docstring); the rest splits off
                cut = exponent if factor is None else min(factor.exponent, exponent)
                counts[cut] += ell**n - rows.get(idx, 0)
        if lifts:
            q = ell**exponent
            # row of a distinguished block -> (the block's first row, its column of M(nu))
            lift = {}
            for start, modulus, nus, used in blocks:
                nu = next(nus)
                if used:
                    parts = multiplication_matrix(nu, modulus, q, used[-1] - start + 1)
                    lift.update((r, (start, parts[r - start])) for r in used)
            lifted = [_product(col, lift, q) for col in columns]
            counts.update(divisor_valuations(lifted, dimension, ell, exponent))
        else:
            counts.update(min(v, exponent) for v in valuations)
            counts[exponent] += zeros
        if isinstance(descent, SpecialDescent):
            counts[exponent] += 1
        del counts[0]  # unit divisors
        yield +counts


def _check_level(
    module: ElementaryModule, descent: DescentDatum, n: int, k: int, cap: int
) -> None:
    """``check_window`` of the one level n, then n >= e for generic data with generators."""
    check_window(module, n, n, k, cap)
    if isinstance(descent, GenericDescent) and descent.generators and n < descent.level:
        raise ValueError(f"level n={n} is below the descent level e={descent.level}")


def _level(
    module: ElementaryModule, descent: DescentDatum, n: int, k: int, cap: int
) -> Counter[int]:
    _check_level(module, descent, n, k, cap)
    [counts] = _quotients(module, descent, n, n, k)
    return counts


def quotient_group(
    module: ElementaryModule,
    descent: DescentDatum,
    n: int,
    k: int = 0,
    *,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> FiniteAbelianGroup:
    """Structure of the level-n tower quotient with exponent shift k."""
    counts = _level(module, descent, n, k, dimension_cap)
    return FiniteAbelianGroup(tuple(counts.elements()))


def order_valuation(
    module: ElementaryModule,
    descent: DescentDatum,
    n: int,
    k: int = 0,
    *,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> int:
    """x(n, k): the l-valuation of the order of the level-n quotient."""
    counts = _level(module, descent, n, k, dimension_cap)
    return sum(v * m for v, m in counts.items())


def _order_sequence(
    module: ElementaryModule, descent: DescentDatum, n_min: int, n_max: int, k: int
) -> OrderSequence:
    """``order_sequence`` of a window that ``check_window`` has passed."""
    level = descent.level if isinstance(descent, GenericDescent) else 0
    if isinstance(descent, GenericDescent) and descent.generators and n_min <= level:
        raise ValueError(f"sequences for generic data start at n >= e+1 = {level + 1}")
    values = tuple(
        sum(v * m for v, m in counts.items())
        for counts in _quotients(module, descent, n_min, n_max, k)
    )
    return OrderSequence(
        prime=module.prime.value, shift=k, level=level, n_min=n_min, values=values
    )


def order_sequence(
    module: ElementaryModule,
    descent: DescentDatum,
    n_min: int,
    n_max: int,
    k: int = 0,
    *,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> OrderSequence:
    """x(n, k) for every n in [n_min, n_max], from one reduction of the window.

    The window is refused in this order: empty, n_min < 0, n_min + k < 1,
    over the ambient cap, over the precision cap (``check_window``, which
    reads no descent), then n_min <= e for generic data with generators,
    since the window over which the asymptotic parameters are read must sit
    strictly above the descent level; only then is the descent validated.
    """
    check_window(module, n_min, n_max, k, dimension_cap)
    return _order_sequence(module, descent, n_min, n_max, k)


def enumeration_oracle(
    module: ElementaryModule,
    descent: DescentDatum,
    n: int,
    k: int = 0,
    *,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> int:
    """x(n, k) by literal subgroup closure; independent of the elimination path.

    Enumerates the relation subgroup of the full finite ambient module, l^n
    monomials in every coordinate, element by element and counts cosets.
    Each relation is an exact ``IntPoly`` product (l^m * T^j, P * T^j and
    tower_ratio(l, n, e) * y) reduced by long division by tower_poly(l, n),
    which the fast engine never builds, then mod l^N.  The only definition the
    two share is ``tower_poly``, which tests check against repeated
    multiplication by 1 + T; none of the engine's companion fold runs here.

    The level is checked as ``order_valuation`` checks it, with ``element_cap``
    for the cap: l^(dim * N) elements within it keep dim and N within it, and
    a module with no coordinate still builds tower_poly(l, n).
    """
    _check_level(module, descent, n, k, element_cap)
    require_valid(module, descent)
    exponent = n + k
    ell = module.prime.value
    # _check_level keeps dim within the cap; l^(dim * N) elements exceed it
    # iff dim * N >= least, the least m with l^m > cap
    block = ell**n
    dim = module.coordinate_count * block
    if dim * exponent >= _first_level_over(ell, 1, element_cap):
        raise CapExceeded(
            f"ambient module has l^({module.coordinate_count}*{ell}^{n}*{exponent}) "
            f"elements, cap is {element_cap}"
        )
    q = ell**exponent
    ambient = q**dim
    w = tower_poly(module.prime, n)

    def vector(coords: list[IntPoly]) -> tuple[int, ...]:
        # each coordinate mod w by long division, then its l^n coefficients mod q
        reduced = [c % w for c in coords]
        return tuple(r.coeff(i) % q for r in reduced for i in range(block))

    zero = (0,) * dim
    generators: list[tuple[int, ...]] = []
    for idx, factor in enumerate(module.torsion_factors):
        coords = [ZERO] * module.coordinate_count
        annihilator = (
            IntPoly((ell**factor.exponent,)) if isinstance(factor, LPower) else factor.poly
        )
        for j in range(block):
            coords[module.free_rank + idx] = annihilator.shift(j)
            generators.append(vector(coords))
    if isinstance(descent, GenericDescent) and descent.generators:
        ratio = tower_ratio(module.prime, n, descent.level)
        generators.extend(vector([ratio * c for c in gen.coords]) for gen in descent.generators)

    subgroup = {zero}
    for g in generators:
        if g in subgroup:
            continue
        cosets = []
        acc = g
        while acc not in subgroup:
            cosets.append(acc)
            acc = tuple((x + y) % q for x, y in zip(acc, g))
        extended = set(subgroup)
        for c in cosets:
            for s in subgroup:
                extended.add(tuple((x + y) % q for x, y in zip(s, c)))
        subgroup = extended

    assert ambient % len(subgroup) == 0
    value = dim * exponent - ell_valuation(len(subgroup), ell)
    if isinstance(descent, SpecialDescent):
        value += exponent
    return value

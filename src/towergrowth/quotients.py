"""Finite tower quotients of an elementary module and their orders.

At level n with exponent shift k the quotient is

    E / ( ratio_n_e * Y  +  tower_poly(l, n) * E  +  l^(n+k) * E )

where ratio_n_e = tower_ratio(l, n, e) and Y is the span of the descent
generators (generic case; the special case instead adds one full Z/l^(n+k)
summand on top of the generator-free quotient).  The module is free over
Z/l^(n+k) on a basis chosen per coordinate:

* a distinguished coordinate Lambda/(P) of degree d is (Z/l^(n+k))[T]/(P),
  free on T^0..T^(d-1) by Weierstrass preparation; its relations are the d
  columns (T^j * tower_poly(l, n)) mod P;
* a free or l-power coordinate that some generator touches (has a nonzero
  polynomial in) keeps the monomials T^0..T^(l^n - 1), with the columns
  l^m * T^a for an l-power factor;
* a free or l-power coordinate that no generator touches splits off in
  closed form: l^n cyclic factors of order l^(n+k) (free) or
  l^min(m, n+k) (l-power), with no elimination at all.

Each Y generator gives one column, its coordinates times ratio_n_e reduced
mod each block's modulus (Y is not T-stable as a set, so generators get no
shifts), and the l^(n+k) columns are folded into the elimination kernel.
``dimension_cap`` counts the full ambient, coordinate_count * l^n, not the
rows the kernel sees.

``enumeration_oracle`` recomputes the same order by literal subgroup closure
in the full finite ambient module, l^n monomials in every coordinate; it
shares the tower polynomial and tower ratio definitions with the elimination
path and nothing else, and exists to cross-check the engine.
"""

from __future__ import annotations

import dataclasses

from .linalg import divisor_valuations, ell_valuation
from .modules import (
    DescentDatum,
    DistinguishedFactor,
    ElementaryModule,
    GenericDescent,
    LPower,
    SpecialDescent,
    require_valid,
)
from .polynomials import (
    IntPoly,
    multiplication_matrix,
    poly_mod_reduce,
    tower_poly,
    tower_ratio,
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


def _check_levels(descent: DescentDatum, n: int, k: int) -> None:
    if n < 0:
        raise ValueError("level n must be nonnegative")
    if n + k < 1:
        raise ValueError(f"need n + k >= 1, got n={n}, k={k}")
    if isinstance(descent, GenericDescent) and descent.generators and n < descent.level:
        raise ValueError(f"level n={n} is below the descent level e={descent.level}")


def _check_dimension(module: ElementaryModule, n: int, dimension_cap: int) -> None:
    dim = module.coordinate_count * module.prime.value**n
    if dim > dimension_cap:
        raise CapExceeded(
            f"ambient dimension {dim} exceeds the cap {dimension_cap} at level n={n}"
        )


def _relation_columns(
    module: ElementaryModule, descent: DescentDatum, n: int, exponent: int
) -> tuple[list[int], int, list[list[int]]]:
    """Valuations split off in closed form, then the dimension and relation
    columns mod l^exponent of the coordinates left to the kernel."""
    ell = module.prime.value
    block = ell**n
    q = ell**exponent
    w = tower_poly(module.prime, n).reduce_coeffs(q)
    gens = descent.generators if isinstance(descent, GenericDescent) else ()
    factors = (None,) * module.free_rank + module.torsion_factors
    split: list[int] = []
    moduli: dict[int, IntPoly] = {}  # coordinate -> modulus of its kernel block
    relations: dict[int, IntPoly] = {}  # coordinate -> relation it multiplies by
    offsets: dict[int, int] = {}
    dim = 0
    for idx, factor in enumerate(factors):
        if isinstance(factor, DistinguishedFactor):
            moduli[idx] = factor.poly
            relations[idx] = poly_mod_reduce(w, factor.poly, q)
        elif any(not g.coords[idx].is_zero for g in gens):
            moduli[idx] = w
            if isinstance(factor, LPower):
                relations[idx] = IntPoly((ell**factor.exponent % q,))
        else:
            # untouched: (Z/l^N)[T]/(w) is free on l^n monomials, cut by l^m
            split += [exponent if factor is None else min(factor.exponent, exponent)] * block
            continue
        offsets[idx] = dim
        dim += moduli[idx].degree
    columns: list[list[int]] = []

    def add_column(parts: dict[int, list[int]]) -> None:
        if any(any(part) for part in parts.values()):
            col = [0] * dim
            for idx, part in parts.items():
                col[offsets[idx] : offsets[idx] + len(part)] = part
            columns.append(col)

    for idx, rel in relations.items():
        for part in multiplication_matrix(rel, moduli[idx]):
            add_column({idx: [x % q for x in part]})

    if gens:
        ratio = tower_ratio(module.prime, n, descent.level).reduce_coeffs(q)
        ratios = {idx: poly_mod_reduce(ratio, modulus, q) for idx, modulus in moduli.items()}
        for gen in gens:
            parts = {}
            for idx, modulus in moduli.items():
                r = poly_mod_reduce(ratios[idx] * gen.coords[idx].reduce_coeffs(q), modulus, q)
                parts[idx] = [r.coeff(i) for i in range(modulus.degree)]
            add_column(parts)
    return split, dim, columns


def _quotient_valuations(
    module: ElementaryModule,
    descent: DescentDatum,
    n: int,
    k: int,
    dimension_cap: int,
) -> list[int]:
    _check_levels(descent, n, k)
    _check_dimension(module, n, dimension_cap)
    exponent = n + k
    ell = module.prime.value
    vals, dim, columns = _relation_columns(module, descent, n, exponent)
    if columns:
        rows = [[col[i] for col in columns] for i in range(dim)]
        vals += divisor_valuations(rows, ell, exponent)
    else:
        vals += [exponent] * dim
    if isinstance(descent, SpecialDescent):
        vals.append(exponent)
    return [v for v in vals if v > 0]


def quotient_group(
    module: ElementaryModule,
    descent: DescentDatum,
    n: int,
    k: int = 0,
    *,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> FiniteAbelianGroup:
    """Structure of the level-n tower quotient with exponent shift k."""
    require_valid(module, descent)
    vals = _quotient_valuations(module, descent, n, k, dimension_cap)
    return FiniteAbelianGroup(tuple(vals))


def order_valuation(
    module: ElementaryModule,
    descent: DescentDatum,
    n: int,
    k: int = 0,
    *,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> int:
    """x(n, k): the l-valuation of the order of the level-n quotient."""
    require_valid(module, descent)
    return sum(_quotient_valuations(module, descent, n, k, dimension_cap))


def order_sequence(
    module: ElementaryModule,
    descent: DescentDatum,
    n_min: int,
    n_max: int,
    k: int = 0,
    *,
    dimension_cap: int = DEFAULT_DIMENSION_CAP,
) -> OrderSequence:
    """x(n, k) for every n in [n_min, n_max], evaluated deterministically.

    Generic data with generators require n_min > e: the window over which
    the asymptotic parameters are read must sit strictly above the descent
    level.
    """
    if n_min > n_max:
        raise ValueError(f"empty level range [{n_min}, {n_max}]")
    require_valid(module, descent)
    level = 0
    if isinstance(descent, GenericDescent):
        level = descent.level
        if descent.generators and n_min <= level:
            raise ValueError(
                f"sequences for generic data start at n >= e+1 = {level + 1}"
            )
    # before any level: l^n outgrows the cap within its bit length past n_min
    _check_levels(descent, n_min, k)
    _check_dimension(module, min(n_max, n_min + dimension_cap.bit_length()), dimension_cap)
    values = tuple(
        sum(_quotient_valuations(module, descent, n, k, dimension_cap))
        for n in range(n_min, n_max + 1)
    )
    return OrderSequence(
        prime=module.prime.value, shift=k, level=level, n_min=n_min, values=values
    )


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
    Only ``tower_poly`` and ``tower_ratio`` are shared with the fast engine;
    tests check ``tower_poly`` against repeated multiplication by 1 + T.
    """
    require_valid(module, descent)
    _check_levels(descent, n, k)
    exponent = n + k
    ell = module.prime.value
    block = ell**n
    dim = module.coordinate_count * block
    q = ell**exponent
    ambient = q**dim
    if ambient > element_cap:
        raise CapExceeded(
            f"ambient module has l^{dim * exponent} elements, cap is {element_cap}"
        )

    w = tower_poly(module.prime, n).reduce_coeffs(q)
    w_low = [w.coeff(i) for i in range(block)]  # T^block = -(low part) mod w
    zero = (0,) * dim

    def t_act(vec: tuple[int, ...]) -> tuple[int, ...]:
        out = list(vec)
        for off in range(0, dim, block):
            top = vec[off + block - 1]
            for i in range(block):
                prev = vec[off + i - 1] if i else 0
                out[off + i] = (prev - top * w_low[i]) % q
        return tuple(out)

    def embed(coord_idx: int, poly: IntPoly) -> tuple[int, ...]:
        vec = zero
        off = coord_idx * block
        for a in reversed([poly.coeff(i) for i in range(poly.degree + 1)]):
            vec = t_act(vec)
            if a % q:
                lst = list(vec)
                lst[off] = (lst[off] + a) % q
                vec = tuple(lst)
        return vec

    def apply_poly(poly: IntPoly, vec: tuple[int, ...]) -> tuple[int, ...]:
        out = zero
        for a in reversed([poly.coeff(i) for i in range(poly.degree + 1)]):
            out = t_act(out)
            if a % q:
                out = tuple((x + a * y) % q for x, y in zip(out, vec))
        return out

    generators: list[tuple[int, ...]] = []
    for idx, factor in enumerate(module.torsion_factors):
        coord = module.free_rank + idx
        base = (
            embed(coord, IntPoly((ell**factor.exponent,)))
            if isinstance(factor, LPower)
            else embed(coord, factor.poly)
        )
        vec = base
        for _ in range(block):
            generators.append(vec)
            vec = t_act(vec)
    if isinstance(descent, GenericDescent) and descent.generators:
        ratio = tower_ratio(module.prime, n, descent.level)
        for gen in descent.generators:
            vec = zero
            for c_idx, coord in enumerate(gen.coords):
                part = embed(c_idx, coord)
                vec = tuple((x + y) % q for x, y in zip(vec, part))
            generators.append(apply_poly(ratio, vec))

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

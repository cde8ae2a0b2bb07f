"""Finite tower quotients of an elementary module and their orders.

At level n with exponent shift k the quotient is

    E / ( nu * Y  +  omega_n * E  +  l^N * E ),   N = n + k,

where omega_n = tower_poly(l, n), nu = nu_{n,e} = omega_n / omega_e and Y is
the span of the descent generators (generic case; the special case instead
adds one full Z/l^N summand on top of the generator-free quotient).  The
module is free over Z/l^N on a basis chosen per coordinate, and no block the
kernel sees grows with n:

* a distinguished coordinate Lambda/(P) of degree d is (Z/l^N)[T]/(P), free
  on T^0..T^(d-1) by Weierstrass preparation; its relations are the d
  columns T^j * omega_n mod P, and a generator's entry is nu * g mod P, with
  omega_n and nu taken mod (P, l^N) by ``tower_residues``;
* a free or l-power coordinate (Z/l^N)[T]/(omega_n), cut by l^m for
  Lambda/(l^m), is Z/l^N[Gamma_n].  Multiplication by nu maps
  (Z/l^N)[T]/(omega_e) onto its Gal(K_n/K_e)-invariants, a direct summand of
  rank l^e that holds every generator part nu * g.  If some generator
  touches the coordinate (has a nonzero polynomial in it), those l^e rows go
  to the kernel with modulus omega_e, entries g mod omega_e and, for
  Lambda/(l^m), the columns l^m * T^a; the other l^n - l^e rows split off
  in closed form, as factors of order l^N (free) or l^min(m, N).  An
  untouched coordinate splits off whole, l^n such factors.

Each Y generator gives one column (Y is not T-stable as a set, so
generators get no shifts), and the l^N columns are folded into the
elimination kernel.  Only tower_poly(l, e) is built as a polynomial.
``dimension_cap`` counts the full ambient, coordinate_count * l^n, not the
rows the kernel sees.

``enumeration_oracle`` recomputes the same order by literal subgroup closure
in the full finite ambient module, l^n monomials in every coordinate, from
the exact level-n tower polynomial and tower ratio; it exists to cross-check
the engine.
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
    ONE,
    IntPoly,
    multiplication_matrix,
    poly_mod_reduce,
    tower_poly,
    tower_ratio,
    tower_residues,
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
    q = ell**exponent
    gens = descent.generators if isinstance(descent, GenericDescent) else ()
    e = descent.level if gens else n
    factors = (None,) * module.free_rank + module.torsion_factors
    split: list[int] = []
    moduli: dict[int, IntPoly] = {}  # coordinate -> modulus of its kernel block
    relations: dict[int, IntPoly] = {}  # coordinate -> relation it multiplies by
    ratios: dict[int, IntPoly] = {}  # coordinate -> multiplier of generator parts
    offsets: dict[int, int] = {}
    dim = 0
    for idx, factor in enumerate(factors):
        if isinstance(factor, DistinguishedFactor):
            moduli[idx] = factor.poly
            relations[idx], ratios[idx] = tower_residues(module.prime, n, e, factor.poly, q)
        else:
            # generator parts lie in the rank-l^e summand nu * (Z/l^N)[T]/(omega_e)
            # (module docstring); the other rows split off
            touched = any(not g.coords[idx].is_zero for g in gens)
            cut = exponent if factor is None else min(factor.exponent, exponent)
            split += [cut] * (ell**n - (ell**e if touched else 0))
            if not touched:
                continue
            moduli[idx] = tower_poly(module.prime, e)
            ratios[idx] = ONE
            if isinstance(factor, LPower):
                relations[idx] = IntPoly((ell**factor.exponent % q,))
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
) -> list[int]:
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
    _check_levels(descent, n, k)
    _check_dimension(module, n, dimension_cap)
    require_valid(module, descent)
    vals = _quotient_valuations(module, descent, n, k)
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
    _check_levels(descent, n, k)
    _check_dimension(module, n, dimension_cap)
    require_valid(module, descent)
    return sum(_quotient_valuations(module, descent, n, k))


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
    require_valid(module, descent)
    values = tuple(
        sum(_quotient_valuations(module, descent, n, k))
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
    monomials in every coordinate, element by element and counts cosets.  It
    builds the exact tower_poly(l, n) and tower_ratio(l, n, e), which the fast
    engine never does; the only definition the two share is tower_poly(l, e),
    and tests check ``tower_poly`` against repeated multiplication by 1 + T.
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

"""Integer polynomials in the tower variable T, and the tower polynomials built from them.

Everything here is exact: coefficients are arbitrary-precision Python ints,
divisions are performed only where they are exact, and reductions modulo an
integer are plain residue arithmetic.  The tower polynomial of level n over a
prime l is

    tower_poly(l, n) = (1 + T)^(l^n) - 1,

computed coefficient by coefficient from the binomial recurrence
C(m, i+1) = C(m, i)·(m - i)/(i + 1) with m = l^n, each step an exact integer
division.  Ratios of tower polynomials and their irreducible factors (T and
the level ratios) are what every quotient construction downstream reduces by.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools


def _is_prime(n: int) -> bool:
    # Deterministic for n < 2^64: trial division by small primes, then a
    # strong-probable-prime test over a witness set proven sufficient there.
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclasses.dataclass(frozen=True)
class Prime:
    """A verified prime, the residue characteristic of the whole computation.

    >>> Prime(2).value
    2
    >>> Prime(6)
    Traceback (most recent call last):
        ...
    ValueError: 6 is not prime
    """

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int):
            raise TypeError(f"prime must be an int, got {type(self.value).__name__}")
        if self.value >= 2**64:
            raise ValueError("primality check is only deterministic below 2**64")
        if not _is_prime(self.value):
            raise ValueError(f"{self.value} is not prime")

    def __int__(self) -> int:
        return self.value

    def __index__(self) -> int:
        return self.value


def as_prime(ell: Prime | int) -> Prime:
    return ell if isinstance(ell, Prime) else Prime(ell)


@dataclasses.dataclass(frozen=True)
class IntPoly:
    """Polynomial in T with integer coefficients, stored low degree first.

    Trailing zeros are trimmed on construction, so the zero polynomial has an
    empty coefficient tuple and degree -1.

    >>> p = IntPoly((0, 2, 1))
    >>> str(p)
    'T^2 + 2*T'
    >>> p.degree
    2
    >>> divmod(IntPoly((0, 0, 1)), IntPoly((0, 2, 1)))
    (IntPoly((1,)), IntPoly((0, -2)))
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        c = tuple(self.coeffs)
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: IntPoly) -> IntPoly:
        return IntPoly(
            tuple(
                a + b
                for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
            )
        )

    def __sub__(self, other: IntPoly) -> IntPoly:
        return IntPoly(
            tuple(
                a - b
                for a, b in itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)
            )
        )

    def __neg__(self) -> IntPoly:
        return IntPoly(tuple(-a for a in self.coeffs))

    def __mul__(self, other: IntPoly | int) -> IntPoly:
        if isinstance(other, int):
            return IntPoly(tuple(a * other for a in self.coeffs))
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> IntPoly:
        if k < 0:
            raise ValueError("negative power")
        out = IntPoly((1,))
        for _ in range(k):
            out = out * self
        return out

    def shift(self, k: int) -> IntPoly:
        """Multiply by T^k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __divmod__(self, divisor: IntPoly) -> tuple[IntPoly, IntPoly]:
        # Long division; every step must divide exactly over the integers,
        # which always holds for monic divisors.
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = divisor.degree
        lead = divisor.leading
        quo = [0] * max(len(rem) - dd, 0)
        for top in range(len(rem) - 1, dd - 1, -1):
            if rem[top] == 0:
                continue
            q, r = divmod(rem[top], lead)
            if r:
                raise ValueError("division is not exact over the integers")
            quo[top - dd] = q
            for i, b in enumerate(divisor.coeffs):
                rem[top - dd + i] -= q * b
        return IntPoly(tuple(quo)), IntPoly(tuple(rem))

    def __floordiv__(self, divisor: IntPoly) -> IntPoly:
        return divmod(self, divisor)[0]

    def __mod__(self, divisor: IntPoly) -> IntPoly:
        return divmod(self, divisor)[1]

    def reduce_coeffs(self, modulus: int) -> IntPoly:
        """Reduce every coefficient into [0, modulus)."""
        if modulus < 2:
            raise ValueError("integer modulus must be at least 2")
        return IntPoly(tuple(a % modulus for a in self.coeffs))

    def __call__(self, x: int) -> int:
        out = 0
        for a in reversed(self.coeffs):
            out = out * x + a
        return out

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            a = self.coeff(i)
            if a == 0:
                continue
            if i == 0:
                term = str(abs(a))
            else:
                var = "T" if i == 1 else f"T^{i}"
                term = var if abs(a) == 1 else f"{abs(a)}*{var}"
            if not parts:
                parts.append(term if a > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if a > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"


ZERO = IntPoly()
ONE = IntPoly((1,))
T = IntPoly((0, 1))


def monomial(k: int, c: int = 1) -> IntPoly:
    """c * T^k."""
    return IntPoly((0,) * k + (c,))


@functools.lru_cache(maxsize=None)
def _tower_poly_cached(ell: int, n: int) -> IntPoly:
    m = ell**n
    coeffs = [0]  # C(m, 0) - 1
    c = 1
    for i in range(m):
        c = c * (m - i) // (i + 1)
        coeffs.append(c)
    return IntPoly(tuple(coeffs))


def tower_poly(ell: Prime | int, n: int) -> IntPoly:
    """(1 + T)^(l^n) - 1, the defining polynomial of level n of the tower.

    >>> str(tower_poly(2, 1))
    'T^2 + 2*T'
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    return _tower_poly_cached(as_prime(ell).value, n)


@functools.lru_cache(maxsize=None)
def _tower_ratio_cached(ell: int, n: int, e: int) -> IntPoly:
    quo, rem = divmod(_tower_poly_cached(ell, n), _tower_poly_cached(ell, e))
    assert rem.is_zero
    return quo


def tower_ratio(ell: Prime | int, n: int, e: int) -> IntPoly:
    """tower_poly(l, n) / tower_poly(l, e), exact, for n >= e.

    The ratio is monic of degree l^n - l^e with every lower coefficient
    divisible by l.  By convention the ratio at n == e is 1.

    >>> str(tower_ratio(2, 2, 1))
    'T^2 + 2*T + 2'
    """
    if e < 0 or n < e:
        raise ValueError(f"need 0 <= e <= n, got e={e}, n={n}")
    return _tower_ratio_cached(as_prime(ell).value, n, e)


def is_distinguished(p: IntPoly, ell: Prime | int) -> bool:
    """True iff p is monic and every non-leading coefficient is divisible by l."""
    ell = as_prime(ell).value
    if not p.is_monic:
        return False
    return all(a % ell == 0 for a in p.coeffs[:-1])


def cyclotomic_factors(ell: Prime | int, e: int) -> tuple[IntPoly, ...]:
    """The e+1 irreducible factors of tower_poly(l, e): T and the level ratios.

    tower_poly(l, e) = T * prod(tower_ratio(l, i, i-1) for i in 1..e), each
    factor distinguished and irreducible over the rationals, no factor
    repeated.  Nothing in the engine needs the factorization; it stays
    public because descent data with a known defect are built from it: the
    cofactor of any product h of these factors spans a T-stable ideal whose
    free-coordinate copies each add deg(h) to the defect (the seeded test
    corpus is made this way).
    """
    if e < 0:
        raise ValueError("level must be nonnegative")
    return (T,) + tuple(tower_ratio(ell, i, i - 1) for i in range(1, e + 1))


def poly_mod_reduce(p: IntPoly, modulus_poly: IntPoly, modulus_int: int) -> IntPoly:
    """Canonical representative of p modulo (modulus_poly, modulus_int).

    modulus_poly must be monic.  The result has degree < deg(modulus_poly)
    and coefficients in [0, modulus_int); the map is idempotent and constant
    on residue classes.

    >>> str(poly_mod_reduce(IntPoly((0, 0, 1)), IntPoly((0, 2, 1)), 4))
    '2*T'
    """
    if not modulus_poly.is_monic:
        raise ValueError("polynomial modulus must be monic")
    if modulus_int < 2:
        raise ValueError("integer modulus must be at least 2")
    dd = modulus_poly.degree
    rem = [a % modulus_int for a in p.coeffs]
    for top in range(len(rem) - 1, dd - 1, -1):
        lead = rem[top]
        if lead == 0:
            continue
        # modulus_poly is monic, so subtracting lead * T^(top-dd) * modulus_poly
        # zeroes the top coefficient exactly; lower ones re-reduce mod the int.
        for i, b in enumerate(modulus_poly.coeffs):
            rem[top - dd + i] = (rem[top - dd + i] - lead * b) % modulus_int
        rem[top] = 0
    return IntPoly(tuple(rem[:dd]))


def tower_residues(
    ell: Prime | int, n: int, e: int, modulus_poly: IntPoly, modulus_int: int
) -> tuple[IntPoly, IntPoly]:
    """tower_poly(l, n) and tower_ratio(l, n, e) modulo (modulus_poly, modulus_int).

    Both come from u_i = (1 + T)^(l^i), raised to the l-th power level by
    level in (Z/modulus_int)[T]/(modulus_poly): the tower polynomial is
    u_n - 1, and the ratio is the product over e <= i < n of
    1 + u_i + ... + u_i^(l-1).  That is O(n * l) products of residues of
    degree below deg(modulus_poly), never the l^n coefficients of either
    polynomial.  modulus_poly must be monic.

    >>> [str(r) for r in tower_residues(2, 3, 1, T, 16)]  # T = 0: omega = 0, nu = l^(n-e)
    ['0', '4']
    >>> P = IntPoly((2, 0, 1))
    >>> [str(r) for r in tower_residues(2, 3, 1, P, 16)]
    ['8*T', '4*T']
    >>> tower_residues(3, 2, 0, P, 9) == (
    ...     poly_mod_reduce(tower_poly(3, 2), P, 9),
    ...     poly_mod_reduce(tower_ratio(3, 2, 0), P, 9))
    True
    """
    ell = as_prime(ell).value
    if e < 0 or n < e:
        raise ValueError(f"need 0 <= e <= n, got e={e}, n={n}")

    def mul(a: IntPoly, b: IntPoly) -> IntPoly:
        return poly_mod_reduce(a * b, modulus_poly, modulus_int)

    one = poly_mod_reduce(ONE, modulus_poly, modulus_int)
    u = poly_mod_reduce(IntPoly((1, 1)), modulus_poly, modulus_int)
    ratio = one
    for i in range(n):
        powers = [one]
        for _ in range(ell - 1):
            powers.append(mul(powers[-1], u))
        if i >= e:
            ratio = mul(ratio, sum(powers, ZERO))
        u = mul(powers[-1], u)
    return poly_mod_reduce(u - ONE, modulus_poly, modulus_int), ratio


def multiplication_matrix(p: IntPoly, c: IntPoly) -> list[list[int]]:
    """Multiplication by p on Z[T]/(c), as the columns (T^j * p) mod c, j < deg(c).

    c must be monic.  Each column lists deg(c) coefficients, low degree first.

    >>> multiplication_matrix(IntPoly((1, 1)), IntPoly((2, 0, 1)))
    [[1, 1], [-2, 1]]
    """
    if not c.is_monic:
        raise ValueError("polynomial modulus must be monic")
    low = c.coeffs[:-1]
    r = p % c
    col = [r.coeff(i) for i in range(c.degree)]
    columns = []
    for _ in range(c.degree):
        columns.append(col)
        # T * col: shift up, then fold T^deg(c) = -(low part of c) back in
        top = col[-1]
        col = [x - top * b for x, b in zip([0] + col[:-1], low)]
    return columns

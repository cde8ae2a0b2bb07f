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

Arithmetic in Z[T]/(c) for a monic c, optionally mod an integer q, has one
primitive: the companion fold of T, ``residue``, and ``multiplication_matrix``
built from it.  It reduces every generator part, gives the relation columns,
and is every product in ``tower_residue_steps``, which reaches nu_{n,e} mod (c, q)
without the l^n coefficients of the exact ratio.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from collections.abc import Iterator, Sequence


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


def tower_residue_steps(
    ell: Prime | int, e: int, modulus_poly: IntPoly, modulus_int: int
) -> Iterator[list[int]]:
    """tower_ratio(l, n, e) = nu_{n,e} modulo (modulus_poly, modulus_int) for
    n = e, e+1, ..., never the l^n coefficients of the ratio.  Each lists
    deg(modulus_poly) coefficients in [0, modulus_int), low degree first;
    modulus_poly must be monic.  tower_poly(l, n) itself is nu_{n,0} * T.

    >>> next(itertools.islice(tower_residue_steps(2, 1, T, 16), 2, None))  # T = 0: l^(n-e)
    [4]
    >>> next(itertools.islice(tower_residue_steps(2, 1, IntPoly((2, 0, 1)), 16), 2, None))
    [0, 4]

    The ratio is the product over e <= i < n of 1 + u_i + ... + u_i^(l-1),
    where u_i = (1 + T)^(l^i).  Each level builds one multiplication matrix,
    that of u_i, and applies it 2(l - 1) times: to the running ratio for
    the factor, and to u_i for u_{i+1} = u_i^l.  Both are carried from one
    level to the next, so the levels up to n cost n matrices in all: a
    window of levels read at the precision of its top costs what its top
    level does alone.  Reduced mod a divisor of modulus_int, each is the
    ratio at that precision, since modulus_poly is monic.
    """
    ell = as_prime(ell).value
    if e < 0:
        raise ValueError(f"need e >= 0, got e={e}")
    q = modulus_int
    ratio = residue((1,), modulus_poly, q)
    u = residue((1, 1), modulus_poly, q)
    for i in itertools.count():
        if i >= e:
            yield ratio
        rows = [*zip(*multiplication_matrix(u, modulus_poly, q))]
        terms = [ratio]  # ratio * u_i^j for j < l, summed into the factor
        for _ in range(ell - 1):
            if i >= e:
                terms.append([sum(map(operator.mul, row, terms[-1])) % q for row in rows])
            u = [sum(map(operator.mul, row, u)) % q for row in rows]
        ratio = [sum(c) % q for c in zip(*terms)]


def residue(p: Sequence[int], c: IntPoly, q: int | None = None) -> list[int]:
    """p mod c for a monic c, deg(c) coefficients low degree first, in [0, q) given q.

    p lists coefficients low degree first, of any length.  The companion
    fold runs Horner from the top deg(c) of them down, col = T * col + a,
    where T * col folds T^deg(c) = -(low part of c) back in, a plain shift
    when the top of col is 0.  So ``residue((0, *r), c)`` is T * r mod c.

    >>> residue((0, 0, 0, 1), IntPoly((2, 0, 1)))  # T^3 = -2T
    [0, -2]
    """
    if not c.is_monic:
        raise ValueError("polynomial modulus must be monic")
    d, low = c.degree, c.coeffs[:-1]
    split = max(len(p) - d, 0)
    col = [x if q is None else x % q for x in [*p[split:], *[0] * (d - len(p) + split)]]
    for a in reversed(p[:split]):
        top, col = col[-1], [a if q is None else a % q, *col[:-1]]
        if top:
            col = [x - top * b for x, b in zip(col, low)]
            col = col if q is None else [x % q for x in col]
    return col


def multiplication_matrix(
    p: Sequence[int], c: IntPoly, q: int | None = None, count: int | None = None
) -> list[list[int]]:
    """Multiplication by p on Z[T]/(c), as the columns (T^j * p) mod c, j < deg(c):
    ``residue(p, c, q)``, then deg(c) - 1 more steps of its fold.  Given
    ``count``, only the first ``count`` columns.

    >>> multiplication_matrix((1, 1), IntPoly((2, 0, 1)))
    [[1, 1], [-2, 1]]
    >>> multiplication_matrix((0, 0, 0, 1), IntPoly((2, 0, 1)), 8)  # T^3 = -2T
    [[0, 6], [4, 0]]
    """
    columns = [residue(p, c, q)]
    for _ in range((c.degree if count is None else count) - 1):
        columns.append(residue((0, *columns[-1]), c, q))
    return columns

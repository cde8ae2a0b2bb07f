"""Integer polynomial layer.

Fixed expected values were derived by hand (binomial expansions, long
division with multiply-back checks) before the implementation existed, and
are frozen here.
"""

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from towergrowth.polynomials import (
    IntPoly,
    ONE,
    T,
    ZERO,
    as_prime,
    cyclotomic_factors,
    is_distinguished,
    monomial,
    multiplication_matrix,
    residue,
    tower_poly,
    tower_ratio,
    tower_residue_steps,
)


class TestPrime:
    def test_small_primes_accepted(self):
        for p in (2, 3, 5, 7, 97):
            assert as_prime(p).value == p

    def test_composites_rejected(self):
        for n in (0, 1, 4, 6, 9, 91):  # 91 = 7 * 13
            with pytest.raises(ValueError):
                as_prime(n)

    def test_large_mersenne_prime(self):
        # 2^31 - 1 is prime (classical); 2^32 + 1 = 641 * 6700417 is not
        assert as_prime(2**31 - 1).value == 2**31 - 1
        with pytest.raises(ValueError):
            as_prime(2**32 + 1)

    def test_int_conversion(self):
        assert int(as_prime(3)) == 3


class TestIntPoly:
    def test_trailing_zeros_trimmed(self):
        assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPoly((0, 0)).coeffs == ()

    def test_degree_and_zero(self):
        assert ZERO.degree == -1 and ZERO.is_zero
        assert ONE.degree == 0
        assert T.degree == 1
        assert monomial(3) == IntPoly((0, 0, 0, 1))

    def test_arithmetic(self):
        # (T + 1)(T - 1) = T^2 - 1
        assert IntPoly((1, 1)) * IntPoly((-1, 1)) == IntPoly((-1, 0, 1))
        assert (IntPoly((1, 1))) ** 2 == IntPoly((1, 2, 1))
        assert T + ONE - ONE == T
        assert 3 * T == IntPoly((0, 3))
        assert T.shift(2) == monomial(3)

    def test_evaluation(self):
        p = IntPoly((1, 2, 1))  # (T+1)^2
        assert p(0) == 1 and p(1) == 4 and p(-1) == 0

    def test_divmod_exact_for_monic(self):
        # T^2 + 2T = T * (T + 2)
        q, r = divmod(IntPoly((0, 2, 1)), IntPoly((2, 1)))
        assert q == T and r == ZERO

    def test_divmod_rejects_inexact_division(self):
        with pytest.raises(ValueError):
            divmod(T, IntPoly((0, 2)))

    def test_floordiv_and_mod(self):
        p = IntPoly((0, 2, 1))
        assert p // IntPoly((2, 1)) == T
        assert p % IntPoly((2, 1)) == ZERO
        assert IntPoly((1, 2, 1)) % IntPoly((1, 1)) == ZERO

    def test_reduce_coeffs(self):
        assert IntPoly((-1, 5)).reduce_coeffs(4) == IntPoly((3, 1))

    def test_str(self):
        assert str(IntPoly((0, 2, 1))) == "T^2 + 2*T"
        assert str(ZERO) == "0"
        assert str(IntPoly((-1, 1))) == "T - 1"


class TestTowerPolys:
    def test_tower_poly_frozen_values(self):
        # (1+T)^2 - 1 and (1+T)^4 - 1, expanded by hand
        assert tower_poly(2, 1) == IntPoly((0, 2, 1))
        assert tower_poly(2, 2) == IntPoly((0, 4, 6, 4, 1))
        assert tower_poly(3, 1) == IntPoly((0, 3, 3, 1))
        assert tower_poly(2, 0) == T

    @pytest.mark.parametrize(
        "ell,n",
        [(ell, n) for ell in (2, 3, 5, 7, 11, 13) for n in range(9) if ell**n <= 256],
    )
    def test_tower_poly_matches_repeated_multiplication(self, ell, n):
        # the definition itself, kept as the reference for the binomial recurrence
        assert tower_poly(ell, n) == IntPoly((1, 1)) ** (ell**n) - ONE

    def test_tower_ratio_frozen_values(self):
        # multiply-back checked by hand
        assert tower_ratio(2, 2, 1) == IntPoly((2, 2, 1))
        assert tower_ratio(2, 2, 0) == IntPoly((4, 6, 4, 1))
        assert tower_ratio(3, 1, 0) == IntPoly((3, 3, 1))
        assert tower_ratio(2, 3, 3) == ONE

    def test_tower_ratio_rejects_inverted_levels(self):
        with pytest.raises(ValueError):
            tower_ratio(2, 1, 2)

    def test_constant_term_is_prime_power(self):
        # the ratio at 0 equals l^(n-e) for n > e
        assert tower_ratio(2, 2, 1)(0) == 2
        assert tower_ratio(2, 4, 1)(0) == 8
        assert tower_ratio(3, 2, 0)(0) == 9

    def test_cyclotomic_factors_frozen(self):
        assert cyclotomic_factors(2, 0) == (T,)
        assert cyclotomic_factors(2, 2) == (T, IntPoly((2, 1)), IntPoly((2, 2, 1)))

    def test_cyclotomic_factors_multiply_to_tower_poly(self):
        for ell, e in ((2, 3), (3, 2), (5, 1)):
            prod = ONE
            for c in cyclotomic_factors(ell, e):
                prod = prod * c
            assert prod == tower_poly(ell, e)

    def test_is_distinguished(self):
        assert is_distinguished(IntPoly((2, 1)), 2)
        assert is_distinguished(IntPoly((2, 2, 1)), 2)
        assert not is_distinguished(IntPoly((1, 1)), 2)  # constant term odd
        assert not is_distinguished(IntPoly((2, 2)), 2)  # not monic
        assert not is_distinguished(IntPoly((2, 1, 1)), 2)  # middle term odd


def _residue(p: IntPoly, modulus: IntPoly, q: int | None = None) -> list[int]:
    """p mod (modulus, q) by IntPoly long division: no companion fold."""
    r = p % modulus
    if q is not None:
        r = r.reduce_coeffs(q)
    return [r.coeff(i) for i in range(modulus.degree)]


def _distinguished(rng: random.Random, ell: int, degree: int) -> IntPoly:
    return IntPoly(tuple(ell * rng.randint(-3, 3) for _ in range(degree)) + (1,))


def _matmul(a: list[list[int]], b: list[list[int]], q: int) -> list[list[int]]:
    """Product of two matrices given as columns, mod q."""
    return [[sum(x * col[i] for i, x in enumerate(row)) % q for row in zip(*a)] for col in b]


class TestMultiplicationMatrix:
    """The one product on Z[T]/(c), against IntPoly long division."""

    def test_frozen_values(self):
        w = IntPoly((0, 2, 1))  # T^2 + 2T
        assert multiplication_matrix((0, 0, 1), w, 4)[0] == [0, 2]
        assert multiplication_matrix((5, 1), w, 4)[0] == [1, 1]
        # T^2 = -2T and T^3 = 4T over Z
        assert multiplication_matrix((0, 0, 1), w) == [[0, -2], [0, 4]]

    def test_requires_monic_modulus(self):
        with pytest.raises(ValueError):
            multiplication_matrix(T.coeffs, IntPoly((0, 2)), 4)

    def test_idempotent(self):
        w = tower_poly(2, 2)
        once = multiplication_matrix((7, -3, 9, 1, 5, 2), w, 8)[0]
        assert multiplication_matrix(once, w, 8)[0] == once

    @given(
        coeffs=st.lists(st.integers(-9, 9), max_size=8),
        mult=st.lists(st.integers(-3, 3), max_size=3),
        scale=st.integers(-2, 2),
    )
    def test_class_invariance(self, coeffs, mult, scale):
        # adding multiples of the modulus polynomial or of the integer
        # modulus never changes the matrix mod q
        w = tower_poly(2, 1)
        q = 8
        p = IntPoly(tuple(coeffs))
        shifted = p + w * IntPoly(tuple(mult)) + scale * q * ONE
        assert multiplication_matrix(shifted.coeffs, w, q) == multiplication_matrix(
            p.coeffs, w, q
        )

    @given(
        coeffs=st.lists(st.integers(-10**6, 10**6), max_size=12),
        low=st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        q=st.sampled_from([None, 2, 9, 5**7, 2**70]),
    )
    @settings(max_examples=80, deadline=None)
    def test_columns_match_long_division(self, coeffs, low, q):
        p, c = IntPoly(tuple(coeffs)), IntPoly(tuple(low) + (1,))
        assert multiplication_matrix(coeffs, c, q) == [
            _residue(p.shift(j), c, q) for j in range(c.degree)
        ]


class TestResidue:
    """The companion fold p mod (c, q), against IntPoly long division."""

    @staticmethod
    def _moduli():
        # the irreducible factors of tower polynomials, and random distinguished P
        rng = random.Random(1701)
        for ell in (2, 3, 5):
            yield ell, list(cyclotomic_factors(ell, 3))
            yield ell, [_distinguished(rng, ell, rng.randint(1, 6)) for _ in range(8)]

    @pytest.mark.parametrize("q", [None, "l^3", "2^70"])
    def test_matches_long_division(self, q):
        rng = random.Random(2207)
        checked = 0
        for ell, moduli in self._moduli():
            modulus_int = {None: None, "l^3": ell**3, "2^70": 2**70}[q]
            for c in moduli:
                # p shorter than, as long as and longer than deg c
                for length in (0, 1, c.degree, c.degree + 1, 2 * c.degree + 5):
                    coeffs = tuple(rng.randint(-(10**9), 10**9) for _ in range(length))
                    expected = _residue(IntPoly(coeffs), c, modulus_int)
                    assert residue(coeffs, c, modulus_int) == expected, (c, coeffs)
                    checked += 1
        assert checked > 150

    def test_zero_tops_are_plain_shifts(self):
        # T^j for j < deg c needs no fold; T^deg c is -(low part)
        c = tower_poly(3, 2)
        for j in range(c.degree):
            assert residue(monomial(j).coeffs, c) == [0] * j + [1] + [0] * (8 - j)
        assert residue(monomial(9).coeffs, c) == [-a for a in c.coeffs[:-1]]

    def test_one_step_is_multiplication_by_t(self):
        rng = random.Random(5)
        c = _distinguished(rng, 3, 4)
        r = residue(tuple(rng.randint(-50, 50) for _ in range(11)), c)
        assert residue((0, *r), c) == _residue(IntPoly(tuple(r)).shift(1), c)
        assert multiplication_matrix(r, c)[1] == residue((0, *r), c)

    def test_requires_monic_modulus(self):
        with pytest.raises(ValueError):
            residue((1, 2, 3), IntPoly((0, 2)))


# exact references have l^n coefficients of up to l^n bits, so n stops at
# 8 (l = 2), 6 (l = 3) and 4 (l = 5)
_RESIDUE_LEVELS = [(ell, n) for ell in (2, 3, 5) for n in range(9) if ell**n <= 729]


def _residue_columns(p: IntPoly, modulus: IntPoly, q: int) -> list[list[int]]:
    """Columns T^j·p mod (modulus, q), j < deg(modulus), by IntPoly long
    division of p and then of each small shifted remainder."""
    r, columns = p % modulus, []
    for _ in range(modulus.degree):
        r = r.reduce_coeffs(q)
        columns.append([r.coeff(i) for i in range(modulus.degree)])
        r = r.shift(1) % modulus
    return columns


def _tower_residue(ell, n, e, P, q):
    # nu_{n,e} mod (P, q): level n of a fresh run of the steps
    return next(islice(tower_residue_steps(ell, e, P, q), n - e, None))


class TestTowerResidues:
    """tower_residue_steps and the lift M(nu) against the exact level-n
    polynomials reduced by IntPoly long division, the two routes sharing no
    arithmetic."""

    @pytest.mark.parametrize("ell,n", _RESIDUE_LEVELS)
    def test_ratio_and_lift_match_exact_polynomials(self, ell, n):
        # the factors of tower_poly(l, 3) (degree up to 18 at l=3, 100 at l=5),
        # where nu is l^(n-e) or 0, and random P of degree 1 to 4
        rng = random.Random(ell * 100 + n)
        moduli = cyclotomic_factors(ell, 3) + tuple(
            _distinguished(rng, ell, degree) for degree in (1, 2, 3, 4)
        )
        omega_n = tower_poly(ell, n)
        for e in range(n + 1):
            for P in moduli:
                for N in (1, 5, 40):
                    q = ell**N
                    nu = _tower_residue(ell, n, e, P, q)
                    assert nu == _residue(tower_ratio(ell, n, e), P, q), (e, P, N)
                    if P.degree > 20:
                        continue  # the degree-100 matrix product alone takes seconds
                    lift = _matmul(
                        multiplication_matrix(nu, P, q),
                        multiplication_matrix(tower_poly(ell, e).coeffs, P, q),
                        q,
                    )
                    assert lift == _residue_columns(omega_n, P, q), (e, P, N)

    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_carried_steps_match_a_fresh_call_at_every_level(self, ell):
        # the window's route: one iterator at the top precision, each level
        # reduced to its own; seeded distinguished P up to degree 50
        rng = random.Random(500 + ell)
        for degree in (1, 7, 20, 50):
            P = _distinguished(rng, ell, degree)
            e = rng.randint(0, 2)
            top = e + 8
            steps = tower_residue_steps(ell, e, P, ell**(top + 2))
            for n in range(e, top + 1):
                carried = next(steps)
                for N in (1, n + 2):
                    q = ell**N
                    assert [x % q for x in carried] == _tower_residue(ell, n, e, P, q), (P, n, N)

    def test_rejects_negative_level_and_non_monic_modulus(self):
        with pytest.raises(ValueError, match="need e >= 0"):
            next(tower_residue_steps(2, -1, T, 4))
        with pytest.raises(ValueError, match="must be monic"):
            next(tower_residue_steps(2, 1, IntPoly((2, 2)), 4))


@st.composite
def _tower_levels(draw):
    ell = draw(st.sampled_from([2, 3, 5]))
    top = {2: 6, 3: 4, 5: 3}[ell]
    n = draw(st.integers(0, top))
    e = draw(st.integers(0, n))
    return ell, n, e


class TestTowerProperties:
    @given(_tower_levels())
    @settings(max_examples=60, deadline=None)
    def test_ratio_times_base_is_tower_poly(self, levels):
        ell, n, e = levels
        assert tower_ratio(ell, n, e) * tower_poly(ell, e) == tower_poly(ell, n)

    @given(_tower_levels())
    @settings(max_examples=60, deadline=None)
    def test_ratio_is_distinguished_of_right_degree(self, levels):
        ell, n, e = levels
        r = tower_ratio(ell, n, e)
        assert r.degree == ell**n - ell**e
        if n > e:
            assert is_distinguished(r, ell)

    @given(
        a=st.lists(st.integers(-20, 20), max_size=10),
        b_low=st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    )
    @settings(max_examples=80, deadline=None)
    def test_divmod_round_trip_for_monic(self, a, b_low):
        p = IntPoly(tuple(a))
        b = IntPoly(tuple(b_low) + (1,))
        q, r = divmod(p, b)
        assert q * b + r == p
        assert r.degree < b.degree

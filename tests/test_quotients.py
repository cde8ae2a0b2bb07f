"""Finite-level quotient groups and order sequences.

Frozen group shapes below were computed by hand: write the ambient as
(Z/l^N)[T]/(tower polynomial), list the relation columns, and reduce the
matrix to diagonal form on paper. Small cases only, so this is tractable.
"""

import pytest
from hypothesis import given, settings, strategies as st

from towergrowth import (
    CapExceeded,
    DistinguishedFactor,
    ElementaryModule,
    GenericDescent,
    IntPoly,
    LPower,
    ModuleElement,
    OrderSequence,
    SpecialDescent,
    enumeration_oracle,
    order_sequence,
    order_valuation,
    quotient_group,
    quotients,
)

TRIVIAL = GenericDescent(0, ())
LAMBDA = ElementaryModule(prime=2, free_rank=1)


def _mod(*factors, prime=2, free_rank=0):
    return ElementaryModule(prime=prime, free_rank=free_rank, torsion_factors=factors)


def _rank_one_gen(*coeffs):
    return ModuleElement(free_coords=(IntPoly(tuple(coeffs)),), torsion_coords=())


class TestQuotientGroups:
    def test_free_rank_one_trivial_level_two(self):
        # Lambda/(omega_2, 4) = (Z/4)^4
        g = quotient_group(LAMBDA, TRIVIAL, 2)
        assert g.divisor_valuations == (2, 2, 2, 2)
        assert g.order_valuation == 8

    def test_lpower_level_two(self):
        # 2-torsion line: (Z/2)^4 regardless of the T-structure
        g = quotient_group(_mod(LPower(1)), TRIVIAL, 2)
        assert g.divisor_valuations == (1, 1, 1, 1)

    def test_linear_factor_level_three(self):
        # Lambda/(T): T acts as 0, single cyclic piece of order 2^3
        g = quotient_group(_mod(DistinguishedFactor(IntPoly((0, 1)))), TRIVIAL, 3)
        assert g.divisor_valuations == (3,)

    def test_zero_module_is_trivial_group(self):
        g = quotient_group(_mod(), TRIVIAL, 2)
        assert g.is_trivial
        assert g.divisor_valuations == ()

    def test_special_summand_appends_full_cyclic_factor(self):
        g = quotient_group(_mod(LPower(1)), SpecialDescent(), 2)
        assert g.divisor_valuations == (2, 1, 1, 1, 1)


class TestOrderSequences:
    def test_free_trivial_growth(self):
        seq = order_sequence(LAMBDA, TRIVIAL, 1, 4)
        assert seq.values == (2, 8, 24, 64)  # n * 2^n

    def test_free_trivial_with_shift(self):
        seq = order_sequence(LAMBDA, TRIVIAL, 1, 3, k=1)
        assert seq.values == (4, 12, 32)  # (n+1) * 2^n
        assert seq.shift == 1

    def test_linear_eigenvalue_factor(self):
        seq = order_sequence(_mod(DistinguishedFactor(IntPoly((2, 1)))), TRIVIAL, 1, 4)
        assert seq.values == (1, 2, 3, 4)

    def test_quadratic_factor(self):
        seq = order_sequence(
            _mod(DistinguishedFactor(IntPoly((2, 2, 1)))), TRIVIAL, 1, 4
        )
        assert seq.values == (2, 4, 6, 8)

    def test_special_lpower(self):
        seq = order_sequence(_mod(LPower(1)), SpecialDescent(), 1, 3)
        assert seq.values == (3, 6, 11)  # 2^n + n

    def test_entries_and_value_at(self):
        seq = order_sequence(LAMBDA, TRIVIAL, 1, 3)
        assert seq.entries == ((1, 2), (2, 8), (3, 24))
        assert seq.value_at(2) == 8
        with pytest.raises(KeyError):
            seq.value_at(9)

    def test_generic_sequence_starts_above_level(self):
        d = GenericDescent(1, (_rank_one_gen(1), _rank_one_gen(0, 1)))
        with pytest.raises(ValueError):
            order_sequence(LAMBDA, d, 1, 4)
        seq = order_sequence(LAMBDA, d, 2, 4)
        assert seq.level == 1
        assert len(seq.values) == 3

    def test_invalid_descent_rejected(self):
        d = GenericDescent(1, (_rank_one_gen(1),))
        with pytest.raises(ValueError):
            order_sequence(LAMBDA, d, 2, 4)


class TestPreconditions:
    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(ValueError):
            order_valuation(LAMBDA, TRIVIAL, 1, k=-1)
        with pytest.raises(ValueError):
            order_valuation(LAMBDA, TRIVIAL, 0, k=0)
        # n=0 with positive k is a legal degenerate level
        assert order_valuation(LAMBDA, TRIVIAL, 0, k=1) == 1

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            order_valuation(LAMBDA, TRIVIAL, -1, k=3)

    def test_sequence_window_validation(self):
        with pytest.raises(ValueError):
            OrderSequence(prime=2, shift=0, level=0, n_min=2, values=())
        with pytest.raises(ValueError):
            OrderSequence(prime=2, shift=-2, level=0, n_min=1, values=(1, 2))
        with pytest.raises(ValueError):
            order_sequence(LAMBDA, TRIVIAL, 3, 2)


class TestCaps:
    def test_default_dimension_cap(self):
        with pytest.raises(CapExceeded):
            order_valuation(LAMBDA, TRIVIAL, 13)

    def test_explicit_dimension_cap_checked_before_heavy_work(self):
        # would need the level-200 tower polynomial if the cap fired late
        with pytest.raises(CapExceeded):
            order_valuation(LAMBDA, TRIVIAL, 200, dimension_cap=4)

    def test_sequence_cap_checked_before_any_level(self, monkeypatch):
        # levels 1..5 fit under the cap and level 6 does not: nothing may be
        # computed for a window that cannot finish
        calls = []
        kernel = quotients.divisor_valuations
        monkeypatch.setattr(
            quotients, "divisor_valuations", lambda *a: calls.append(a) or kernel(*a)
        )
        module = _mod(LPower(1), free_rank=1)
        with pytest.raises(CapExceeded, match="at level n=6"):
            order_sequence(module, TRIVIAL, 1, 6, dimension_cap=64)
        with pytest.raises(CapExceeded):
            order_sequence(module, TRIVIAL, 1, 10**12, dimension_cap=64)
        assert calls == []
        order_sequence(module, TRIVIAL, 1, 5, dimension_cap=64)
        assert calls

    def test_enumeration_element_cap(self):
        with pytest.raises(CapExceeded):
            enumeration_oracle(LAMBDA, TRIVIAL, 5, element_cap=2**10)


class TestEnumerationAgreement:
    """Brute-force subgroup enumeration against the diagonalization path."""

    CASES = [
        (LAMBDA, TRIVIAL, 2, 0),
        (LAMBDA, SpecialDescent(), 1, 1),
        (_mod(LPower(1)), TRIVIAL, 2, 0),
        (_mod(LPower(2)), SpecialDescent(), 1, 0),
        (_mod(DistinguishedFactor(IntPoly((2, 1)))), TRIVIAL, 2, 1),
        (_mod(DistinguishedFactor(IntPoly((0, 0, 1)))), TRIVIAL, 2, 0),
        (
            _mod(LPower(1), DistinguishedFactor(IntPoly((2, 1)))),
            TRIVIAL,
            2,
            0,
        ),
        (LAMBDA, GenericDescent(1, (_rank_one_gen(1), _rank_one_gen(0, 1))), 2, 0),
        (LAMBDA, GenericDescent(1, (_rank_one_gen(0, 1),)), 2, 1),
        (LAMBDA, GenericDescent(0, (_rank_one_gen(2, 1),)), 1, 1),
    ]

    @pytest.mark.parametrize("module,descent,n,k", CASES)
    def test_agreement(self, module, descent, n, k):
        expected = order_valuation(module, descent, n, k)
        assert enumeration_oracle(module, descent, n, k) == expected

    def test_frozen_sample_values(self):
        assert enumeration_oracle(_mod(LPower(1)), TRIVIAL, 2) == 4
        assert enumeration_oracle(LAMBDA, TRIVIAL, 2) == 8
        assert enumeration_oracle(_mod(LPower(1)), SpecialDescent(), 2) == 6

    @given(
        n=st.integers(1, 2),
        k=st.integers(0, 1),
        coeffs=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_agreement_random_rank_one_generic(self, n, k, coeffs):
        descent = GenericDescent(0, (_rank_one_gen(*coeffs),))
        expected = order_valuation(LAMBDA, descent, n, k)
        assert enumeration_oracle(LAMBDA, descent, n, k) == expected

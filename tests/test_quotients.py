"""Finite-level quotient groups and order sequences.

Frozen group shapes below were computed by hand: write the ambient as
(Z/l^N)[T]/(tower polynomial), list the relation columns, and reduce the
matrix to diagonal form on paper. Small cases only, so this is tractable.
"""

import random
from collections import Counter
from pathlib import Path

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
    builtin_scenario,
    enumeration_oracle,
    order_sequence,
    order_valuation,
    parse_run,
    quotient_group,
)
from towergrowth import modules

from conftest import build_generic_case

GOLDEN = Path(__file__).parent / "golden"

TRIVIAL = GenericDescent(0, ())
LAMBDA = ElementaryModule(prime=2, free_rank=1)


def _mod(*factors, prime=2, free_rank=0):
    return ElementaryModule(prime=prime, free_rank=free_rank, torsion_factors=factors)


def _rank_one_gen(*coeffs):
    return ModuleElement(free_coords=(IntPoly(tuple(coeffs)),), torsion_coords=())


def _with_t_shift(level, gen):
    return GenericDescent(level, (gen, gen.times_t()))


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

    def test_sequence_cap_checked_before_any_level(self, kernel_shapes):
        # levels 1..5 fit under the cap and level 6 does not: nothing may be
        # computed for a window that cannot finish
        module = _mod(LPower(1), free_rank=1)
        # a generator keeps the free coordinate in the kernel at every level;
        # untouched coordinates split off in closed form without a kernel call
        touched = GenericDescent(0, (ModuleElement((IntPoly((1,)),), (IntPoly(),)),))
        with pytest.raises(CapExceeded, match="at level n=6"):
            order_sequence(module, touched, 1, 6, dimension_cap=64)
        with pytest.raises(CapExceeded, match="at level n=6"):
            order_sequence(module, touched, 1, 10**12, dimension_cap=64)
        assert kernel_shapes == []
        order_sequence(module, touched, 1, 5, dimension_cap=64)
        assert kernel_shapes

    def test_caps_checked_before_validation(self, monkeypatch):
        # validation builds tower_poly(l, e) with no cap of its own, so an
        # over-cap window must stop before it
        calls = []
        validate = modules.validate_descent
        monkeypatch.setattr(
            modules, "validate_descent", lambda *args: calls.append(args) or validate(*args)
        )
        zero = GenericDescent(12, (ModuleElement((IntPoly((0,)),), ()),))
        with pytest.raises(CapExceeded):
            order_sequence(LAMBDA, zero, 13, 14)
        with pytest.raises(CapExceeded):
            order_valuation(LAMBDA, zero, 13)
        with pytest.raises(CapExceeded):
            quotient_group(LAMBDA, zero, 13)
        assert calls == []

    def test_validation_runs_once_per_datum(self, monkeypatch):
        # an equal datum built separately reuses the memoised report
        calls = []
        span = modules.span_invariants
        monkeypatch.setattr(
            modules, "span_invariants", lambda *args: calls.append(args) or span(*args)
        )
        modules._validate_descent.cache_clear()

        def datum():
            gens = tuple(
                ModuleElement((IntPoly((0,) * j + (1,)),), (IntPoly(),)) for j in (1, 2, 3)
            )
            return _mod(LPower(1), free_rank=1), GenericDescent(2, gens)

        first = order_valuation(*datum(), 4)
        assert calls
        calls.clear()
        assert order_valuation(*datum(), 4) == first
        assert quotient_group(*datum(), 3).order_valuation
        assert calls == []

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


class TestReducedAmbient:
    """Distinguished coordinates as companion blocks and untouched coordinates
    split off in closed form, checked against the full-ambient enumeration."""

    @pytest.mark.parametrize("ell", [3, 5])
    def test_generic_draws_match_enumeration(self, ell):
        rng = random.Random(ell)
        checked = 0
        for _ in range(40):
            case = build_generic_case(rng, ell)
            for k in (-1, 0, 2):
                n = max(case.descent.level, 1 - k)
                try:
                    slow = enumeration_oracle(case.module, case.descent, n, k, element_cap=2**16)
                except CapExceeded:
                    continue
                assert order_valuation(case.module, case.descent, n, k) == slow
                checked += 1
        assert checked >= 25

    FREE_GEN = ModuleElement((IntPoly((1, 1)),), (IntPoly(),))
    L2_CASES = [
        # untouched LPower beside a touched free coordinate
        (_mod(LPower(2), free_rank=1), GenericDescent(0, (FREE_GEN,))),
        (_mod(LPower(1), free_rank=1), GenericDescent(1, (FREE_GEN, FREE_GEN.times_t()))),
        # one distinguished coordinate touched, one not
        (
            _mod(DistinguishedFactor(IntPoly((2, 1))), DistinguishedFactor(IntPoly((2, 0, 1)))),
            GenericDescent(0, (ModuleElement((), (IntPoly((1, 1)), IntPoly())),)),
        ),
        (
            _mod(DistinguishedFactor(IntPoly((2, 1))), DistinguishedFactor(IntPoly((0, 2, 1)))),
            GenericDescent(0, (ModuleElement((), (IntPoly(), IntPoly((3, 1)))),)),
        ),
    ]
    L3_CASES = [
        (
            _mod(DistinguishedFactor(IntPoly((3, 1))), LPower(1), prime=3),
            GenericDescent(0, (ModuleElement((), (IntPoly((1,)), IntPoly())),)),
        ),
        (
            _mod(DistinguishedFactor(IntPoly((3, 1))), LPower(1), prime=3),
            GenericDescent(0, (ModuleElement((), (IntPoly(), IntPoly((1, 2)))),)),
        ),
    ]
    # e = 1 generators coupling a touched free or LPower coordinate with another
    COUPLED_CASES = [
        (
            _mod(DistinguishedFactor(IntPoly((2, 1))), free_rank=1),
            _with_t_shift(1, ModuleElement((IntPoly((1,)),), (IntPoly((1,)),))),
        ),
        (
            _mod(LPower(1), DistinguishedFactor(IntPoly((2, 1)))),
            _with_t_shift(1, ModuleElement((), (IntPoly((1,)), IntPoly((1,))))),
        ),
        (
            _mod(LPower(2), free_rank=1),
            _with_t_shift(1, ModuleElement((IntPoly((0, 1)),), (IntPoly((1,)),))),
        ),
    ]
    # (n, k) points whose full ambient the enumeration can still close
    POINTS = [(module, descent, 2, 0) for module, descent in L2_CASES]
    POINTS += [(module, descent, 2, -1) for module, descent in L2_CASES]
    POINTS += [(module, descent, 1, 2) for module, descent in L2_CASES]
    POINTS += [(module, descent, 1, 0) for module, descent in L3_CASES]
    POINTS += [
        (module, descent, n, k)
        for module, descent in COUPLED_CASES
        for n, k in ((2, 0), (2, -1), (1, 2))
    ]

    @pytest.mark.parametrize("module,descent,n,k", POINTS)
    def test_mixed_touched_coordinates_match_enumeration(self, module, descent, n, k):
        assert order_valuation(module, descent, n, k) == enumeration_oracle(module, descent, n, k)

    # Counter of factor valuations, computed with the full l^n ambient per coordinate
    GOLDEN_COUNTS = {
        "mixed": {
            (1, 0): {1: 4}, (2, 0): {2: 8}, (3, 0): {2: 8, 3: 8}, (4, 0): {2: 16, 4: 16},
            (5, 0): {2: 32, 5: 32}, (6, 0): {2: 64, 6: 64}, (0, 3): {1: 1, 2: 1},
            (1, 3): {2: 2, 4: 2}, (2, 3): {2: 4, 5: 4}, (3, 3): {2: 8, 6: 8},
            (4, 3): {2: 16, 7: 16}, (5, 3): {2: 32, 8: 32}, (6, 3): {2: 64, 9: 64},
        },
        "special": {
            (1, 0): {1: 6}, (2, 0): {1: 4, 2: 6}, (3, 0): {1: 8, 3: 10}, (4, 0): {1: 16, 4: 18},
            (5, 0): {1: 32, 5: 34}, (6, 0): {1: 64, 6: 66}, (0, 3): {1: 1, 3: 3},
            (1, 3): {1: 2, 4: 4}, (2, 3): {1: 4, 5: 6}, (3, 3): {1: 8, 6: 10},
            (4, 3): {1: 16, 7: 18}, (5, 3): {1: 32, 8: 34}, (6, 3): {1: 64, 9: 66},
        },
        "transient": {
            (1, 0): {1: 2}, (2, 0): {2: 4}, (3, 0): {3: 8}, (4, 0): {3: 16},
            (5, 0): {3: 32}, (6, 0): {3: 64}, (0, 3): {3: 1}, (1, 3): {3: 2},
            (2, 3): {3: 4}, (3, 3): {3: 8}, (4, 3): {3: 16}, (5, 3): {3: 32},
            (6, 3): {3: 64},
        },
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN_COUNTS))
    def test_golden_run_factor_counts(self, name):
        path = Path(__file__).parent / "golden" / f"{name}.run"
        run = parse_run(path.read_text(encoding="utf-8"))
        for (n, k), counts in self.GOLDEN_COUNTS[name].items():
            group = quotient_group(run.module, run.descent, n, k)
            assert Counter(group.divisor_valuations) == counts, (n, k)


class TestLevelIndependentKernel:
    """The kernel sees l^e rows per touched free or l-power coordinate and
    deg P rows per distinguished one, at every level n."""

    UNCAPPED = 10**9

    def test_mixed_run_kernel_has_three_rows_at_every_level(self, kernel_shapes):
        # free, Lambda/(4) and Lambda/(T + 2), all touched at e = 0: 1 + 1 + 1 rows
        run = parse_run((GOLDEN / "mixed.run").read_text(encoding="utf-8"))
        order_sequence(run.module, run.descent, 1, 10, dimension_cap=self.UNCAPPED)
        assert [rows for rows, _ in kernel_shapes] == [3] * 10

    def test_prop14_kernel_has_l_power_e_rows_at_every_level(self, kernel_shapes):
        scenario = builtin_scenario("prop14:e=2")
        order_sequence(scenario.module, scenario.descent, 3, 11, dimension_cap=self.UNCAPPED)
        assert [rows for rows, _ in kernel_shapes] == [2**2] * 9

    @pytest.mark.parametrize("n", [9, 10])
    def test_mixed_run_closed_form_at_high_levels(self, n):
        run = parse_run((GOLDEN / "mixed.run").read_text(encoding="utf-8"))
        x = order_valuation(run.module, run.descent, n, dimension_cap=self.UNCAPPED)
        assert x == n * 2**n + 2 * 2**n

    def test_special_run_closed_form_at_level_fourteen(self):
        run = parse_run((GOLDEN / "special.run").read_text(encoding="utf-8"))
        x = order_valuation(run.module, run.descent, 14, dimension_cap=self.UNCAPPED)
        assert x == 14 * 2**14 + 2**14 + 2 * 14 == 245788

    def test_touched_l_power_draw_frozen_values(self):
        # l = 5, e = 1: two free and two Lambda/(5) coordinates, all touched;
        # frozen from the full l^n monomial blocks, which took 20 s at n = 4
        rng = random.Random(1005)
        for _ in range(11):
            case = build_generic_case(rng, 5)
        values = [order_valuation(case.module, case.descent, n) for n in (3, 4)]
        assert values == [996, 6245]

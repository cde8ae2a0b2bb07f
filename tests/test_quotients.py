"""Finite-level quotient groups and order sequences.

Frozen group shapes below were computed by hand: write the ambient as
(Z/l^N)[T]/(tower polynomial), list the relation columns, and reduce the
matrix to diagonal form on paper. Small cases only, so this is tractable.
"""

import io
import random
import time
import tracemalloc
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
    codescent_defect,
    enumeration_oracle,
    order_sequence,
    order_valuation,
    parse_run,
    predict_parameters,
    quotient_group,
    scenario_names,
)
from towergrowth import modules, polynomials, quotients
from towergrowth.cli import run_command

from conftest import build_generic_case, first_level_over_by_multiplying, literal_order_valuation

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

    def test_group_below_descent_level_rejected(self):
        s = builtin_scenario("prop14:e=2")
        with pytest.raises(ValueError, match="level n=1 is below the descent level e=2"):
            quotient_group(s.module, s.descent, 1, k=1)

    def test_sequence_window_validation(self):
        with pytest.raises(ValueError):
            OrderSequence(prime=2, shift=0, level=0, n_min=2, values=())
        with pytest.raises(ValueError):
            OrderSequence(prime=2, shift=-2, level=0, n_min=1, values=(1, 2))
        with pytest.raises(ValueError):
            order_sequence(LAMBDA, TRIVIAL, 3, 2)


class TestCaps:
    @pytest.mark.parametrize("ell", [2, 3, 5])
    def test_first_level_over_matches_multiplying_up(self, ell):
        caps = [-(ell**20), -(10**3), -5, -1, 0, 1] + [ell**m + d for m in range(1, 150) for d in (-1, 0, 1)]
        for count in (-1, 0, 1, 2, 3, ell, 7, ell**5 + 1):
            for cap in caps:
                expected = first_level_over_by_multiplying(ell, count, cap)
                assert quotients._first_level_over(ell, count, cap) == expected, (count, cap)

    def test_distinguished_degree_above_cap_next_to_grown_block(self):
        # the degree-100 distinguished rows alone pass the cap 50, so the
        # level-e presentation is refused however small the grown block is
        module = _mod(DistinguishedFactor(IntPoly((2, *[0] * 99, 1))), free_rank=1)
        descent = GenericDescent(3, (ModuleElement((IntPoly((1,)),), (IntPoly(),)),))
        with pytest.raises(CapExceeded, match=r"needs 100 \+ 1\*2\^3 rows, above the cap 50"):
            quotients.check_presentation(module, descent, 50)
        quotients.check_presentation(module, descent, 108)
        with pytest.raises(CapExceeded):
            quotients.check_presentation(module, descent, 107)

    def test_default_dimension_cap(self):
        with pytest.raises(CapExceeded):
            order_valuation(LAMBDA, TRIVIAL, 13)

    def test_explicit_dimension_cap_checked_before_heavy_work(self):
        # would need the level-200 tower polynomial if the cap fired late
        with pytest.raises(CapExceeded):
            order_valuation(LAMBDA, TRIVIAL, 200, dimension_cap=4)

    def test_sequence_cap_checked_before_any_level(self, eliminations):
        # levels 1..5 fit under the cap and level 6 does not: nothing may be
        # computed for a window that cannot finish, validation included
        module = _mod(LPower(1), free_rank=1)
        # a generator keeps the free coordinate in the reduction; untouched
        # coordinates split off in closed form
        touched = GenericDescent(0, (ModuleElement((IntPoly((1,)),), (IntPoly(),)),))
        with pytest.raises(CapExceeded, match="at level n=6"):
            order_sequence(module, touched, 1, 6, dimension_cap=64)
        with pytest.raises(CapExceeded, match="at level n=6"):
            order_sequence(module, touched, 1, 10**12, dimension_cap=64)
        assert eliminations == []
        order_sequence(module, touched, 1, 5, dimension_cap=64)
        # the free row, one generator carrying its image, and no distinguished
        # block: validation's elimination serves every level
        assert eliminations == [("span_elimination", 1, 1, 1)]

    def test_precision_checked_before_any_level(self, eliminations):
        # levels 1..6 are within the cap; n + k first passes it at n = 7
        with pytest.raises(CapExceeded, match=r"precision N=4097 exceeds the cap 4096 at level n=7"):
            order_sequence(LAMBDA, TRIVIAL, 1, 10, k=4090)
        with pytest.raises(CapExceeded, match=r"precision N=65 exceeds the cap 64 at level n=3"):
            quotient_group(LAMBDA, TRIVIAL, 3, k=62, dimension_cap=64)
        assert eliminations == []
        assert order_valuation(LAMBDA, TRIVIAL, 2, k=62, dimension_cap=64) == 4 * 64

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

    def test_validation_runs_once_per_datum(self, eliminations):
        # an equal datum built separately reuses the memoised reduction: its
        # one elimination validates, gives the defect and serves every level
        def datum():
            gens = tuple(
                ModuleElement((IntPoly((0,) * j + (1,)),), (IntPoly(),)) for j in (1, 2, 3)
            )
            return _mod(LPower(1), free_rank=1), GenericDescent(2, gens)

        first = order_valuation(*datum(), 4)
        assert eliminations == [("span_elimination", 4, 3, 3)]
        assert order_valuation(*datum(), 4) == first
        assert quotient_group(*datum(), 3).order_valuation
        assert codescent_defect(*datum()) == 3
        assert modules.validate_descent(*datum()).valid
        assert eliminations == [("span_elimination", 4, 3, 3)]

    def test_enumeration_element_cap(self):
        with pytest.raises(CapExceeded):
            enumeration_oracle(LAMBDA, TRIVIAL, 5, element_cap=2**10)

    def test_enumeration_cap_decided_from_the_exponent(self):
        # l^(dim * N) itself would have 2^40 * 40 bits
        start = time.perf_counter()
        with pytest.raises(CapExceeded):
            enumeration_oracle(LAMBDA, TRIVIAL, 40)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("command", ["verify", "fit", "invariants", "scenario"])
    def test_presentation_built_once_per_command(self, tmp_path, eliminations, command):
        # validation, the defect and the quotients all read one memoised
        # reduction: one span elimination per command, and for `invariants`,
        # which has no window, nothing else
        run = tmp_path / "level_one.run"
        run.write_text(
            "[prime]\nl = 2\n[module]\nfree_rank = 1\npoly = [2, 1]\n"
            "[descent]\nkind = generic\ne = 1\ngenerator = [[1], [0]]\n"
            "generator = [[0, 1], [0]]\n[run]\nn_min = 2\nn_max = 5\nk = 0\n",
            encoding="utf-8",
        )
        out, err = io.StringIO(), io.StringIO()
        target = "prop14:e=3" if command == "scenario" else str(run)
        code = run_command([command, target], out, err)
        assert code in (0, 1), err.getvalue()
        info = modules._reduction.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        spans = [shape for shape in eliminations if shape[0] == "span_elimination"]
        assert len(spans) == 1
        if command == "invariants":
            assert eliminations == spans

    def test_levels_run_no_intpoly_arithmetic(self, monkeypatch):
        # the level-e matrix is reduced by the companion fold and each level is
        # that matrix times M(nu): with the memos cleared, validation, the
        # defect and the quotients run no IntPoly product or division
        rng = random.Random(7003)
        draws = [build_generic_case(rng, 3) for _ in range(30)]
        cases = [(c.module, c.descent) for c in draws if c.descent.level >= 1][:10]
        assert len(cases) == 10
        run = parse_run((GOLDEN / "mixed.run").read_text(encoding="utf-8"))
        calls = []
        for attr in ("__mul__", "__divmod__"):
            original = getattr(IntPoly, attr)
            monkeypatch.setattr(
                IntPoly, attr, lambda *args, f=original: calls.append(f) or f(*args)
            )
        for module, descent in [(run.module, run.descent), *cases]:
            modules._reduction.cache_clear()
            assert modules.validate_descent(module, descent).valid
            codescent_defect(module, descent)
            n_min = descent.level + 1
            order_sequence(module, descent, n_min, n_min + 2, k=3, dimension_cap=10**6)
        assert calls == []


class TestDivisionOfLabour:
    """The engine computes with the companion fold alone: with every IntPoly
    product and division made to fail, validation, the defect, the
    prediction, the quotients, the registry scenarios and the commands on
    the golden run files still run.  Those operations serve only the
    references (the enumeration oracle, the literal route, the corpus)."""

    ARITHMETIC = ("__mul__", "__rmul__", "__pow__", "__divmod__", "__floordiv__", "__mod__")

    def test_engine_runs_no_intpoly_arithmetic(self, monkeypatch):
        rngs = {ell: random.Random(8000 + ell) for ell in (2, 3, 5)}
        draws = [build_generic_case(rngs[ell], ell) for ell in (2, 3, 5) for _ in range(20)]
        commands = ("orders", "invariants", "fit", "verify")
        argvs = [
            *(["scenario", name] for name in scenario_names()),
            *([command, str(path)] for path in sorted(GOLDEN.glob("*.run")) for command in commands),
        ]

        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            return run_command(argv, out, err), out.getvalue(), err.getvalue()

        outputs = [run(argv) for argv in argvs]

        def forbidden(*args):
            raise AssertionError("IntPoly arithmetic in the engine")

        for name in self.ARITHMETIC:
            monkeypatch.setattr(IntPoly, name, forbidden)
        for memo in (
            modules._reduction,
            polynomials._tower_poly_cached,
            polynomials._tower_ratio_cached,
        ):
            memo.cache_clear()
        for case in draws:
            module, descent = case.module, case.descent
            n = descent.level + 1
            assert modules.validate_descent(module, descent).valid
            codescent_defect(module, descent)
            predict_parameters(module, descent)
            order_sequence(module, descent, n, n + 3, k=1, dimension_cap=10**6)
            quotient_group(module, descent, n + 1, k=-1)
        # the same exit codes and bytes as with IntPoly arithmetic in place
        assert [run(argv) for argv in argvs] == outputs


class TestLiteralRoute:
    """``order_valuation`` against the literal level-n presentation of
    ``conftest.literal_order_valuation`` at levels the enumeration cannot
    close: every n from e+1 to 8, 5 and 3 at l = 2, 3 and 5."""

    @pytest.mark.parametrize("ell,top", [(2, 8), (3, 5), (5, 3)])
    def test_generic_draws_match_literal_route(self, ell, top):
        rng = random.Random(ell)
        points = 0
        for _ in range(30):
            case = build_generic_case(rng, ell)
            module, descent = case.module, case.descent
            for n in range(descent.level + 1, top + 1):
                for k in (-1, 0, 2):
                    if n + k >= 1:
                        expected = literal_order_valuation(module, descent, n, k)
                        assert order_valuation(module, descent, n, k) == expected, (n, k)
                        points += 1
        assert points >= 150


class TestWindows:
    """A window equals its levels: ``order_sequence`` (one reduction for the
    window) against ``order_valuation`` at each of its levels, and against
    the literal level-n presentation where n <= 8, 5 and 3 at l = 2, 3 and 5.
    Each drawn module is taken with its generic datum, with special descent
    and with generator-free descent; windows run over 1 to 6 levels."""

    UNCAPPED = 10**9

    @pytest.mark.parametrize("ell,top", [(2, 8), (3, 5), (5, 3)])
    def test_window_entries_are_its_levels(self, ell, top):
        rng = random.Random(1900 + ell)
        literal = 0
        for draw in range(18):
            case = build_generic_case(rng, ell)
            module, e = case.module, case.descent.level
            forms = [(case.descent, e + 1), (SpecialDescent(), 1), (TRIVIAL, 1)]
            for index, (descent, first) in enumerate(forms):
                length = 1 + (draw + index) % 6
                for k in (-1, 0, 2):
                    n_min = max(first, 1 - k)
                    n_max = n_min + length - 1
                    seq = order_sequence(
                        module, descent, n_min, n_max, k, dimension_cap=self.UNCAPPED
                    )
                    for n, x in seq.entries:
                        assert order_valuation(
                            module, descent, n, k, dimension_cap=self.UNCAPPED
                        ) == x, (draw, index, n, k)
                        if n <= top:
                            assert literal_order_valuation(module, descent, n, k) == x
                            literal += 1
        assert literal >= 100

    def test_window_carries_the_tower_residues(self, monkeypatch):
        # one multiplication matrix per tower step: 1000 for the window
        # 995..1000 of mixed.run's one distinguished block, not one per level
        # of each level's own tower (5985)
        steps = []
        build = polynomials.multiplication_matrix
        monkeypatch.setattr(
            polynomials, "multiplication_matrix", lambda *a: steps.append(a) or build(*a)
        )
        run = parse_run((GOLDEN / "mixed.run").read_text(encoding="utf-8"))
        seq = order_sequence(run.module, run.descent, 995, 1000, dimension_cap=2**1100)
        assert seq.values == tuple(n * 2**n + 2 * 2**n for n in range(995, 1001))
        assert len(steps) <= 1000 + 1


class TestSpecialDescentIdentity:
    """Special descent on E is trivial descent on E + Lambda/(T): the summand
    Z/l^N the special case adds is Lambda/(T, omega_n, l^N), and deg T = 1 is
    its extra one in lam_tilde."""

    @pytest.mark.parametrize("ell,top", [(2, 6), (3, 3), (5, 2)])
    def test_special_summand_is_lambda_mod_t(self, ell, top):
        rng = random.Random(100 + ell)
        enumerated = 0
        for _ in range(30):
            module = build_generic_case(rng, ell).module
            extended = ElementaryModule(
                prime=ell,
                free_rank=module.free_rank,
                torsion_factors=(*module.torsion_factors, DistinguishedFactor(IntPoly((0, 1)))),
            )
            special, trivial = (module, SpecialDescent()), (extended, TRIVIAL)
            assert predict_parameters(*special) == predict_parameters(*trivial)
            for n in range(1, top + 1):
                for k in sorted({1 - n, 0, 2}):
                    x = order_valuation(*special, n, k)
                    assert order_valuation(*trivial, n, k) == x, (n, k)
                    if n > 2:
                        continue
                    try:
                        slow = enumeration_oracle(*special, n, k, element_cap=2**20)
                        assert enumeration_oracle(*trivial, n, k, element_cap=2**20) == slow == x
                        enumerated += 1
                    except CapExceeded:
                        pass
        assert enumerated >= 3


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

    @pytest.mark.parametrize("d", [50, 200])
    @pytest.mark.parametrize("n", [1, 2])
    def test_high_degree_distinguished_factor(self, n, d):
        # Lambda/(T^d + 2): d kernel rows for a two-dimensional ambient at n = 1
        module = _mod(DistinguishedFactor(IntPoly((2, *[0] * (d - 1), 1))))
        assert order_valuation(module, TRIVIAL, n) == enumeration_oracle(module, TRIVIAL, n)

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
    """One reduction per window: a window with no distinguished block is one
    kernel call, and otherwise each level's kernel sees only what the window's
    unit pivots in the free and l-power rows leave, the same rows at every
    level n."""

    UNCAPPED = 10**100

    def test_mixed_run_kernel_sees_the_remainder_at_every_level(self, eliminations):
        # free, Lambda/(4) and Lambda/(T + 2), all touched at e = 0: 1 + 1 + 1
        # rows.  Validation eliminates them once (one generator and the
        # Lambda/(4) and Lambda/(T + 2) relations); the generator's 1 in the
        # free row is a unit pivot, cleared once for the window; the
        # Lambda/(4) row (entry 4) and the distinguished row are left
        run = parse_run((GOLDEN / "mixed.run").read_text(encoding="utf-8"))
        order_sequence(run.module, run.descent, 1, 10, dimension_cap=self.UNCAPPED)
        assert eliminations[:2] == [("span_elimination", 3, 3, 1), ("unit_pivots", 2, 3, 0)]
        assert [shape[:2] for shape in eliminations[2:]] == [("divisor_valuations", 2)] * 10

    def test_prop14_window_is_one_kernel_call(self, eliminations):
        # one free block of l^e rows and l^e generator columns, no
        # distinguished block: validation's one elimination, carrying the
        # l^e images T·y, gives every level, and the window makes no call
        scenario = builtin_scenario("prop14:e=2")
        order_sequence(scenario.module, scenario.descent, 3, 11, dimension_cap=self.UNCAPPED)
        assert eliminations == [("span_elimination", 2**2, 2**2, 2**2)]

    @pytest.mark.parametrize("n", [9, 10, 100, 200])
    def test_mixed_run_closed_form_at_high_levels(self, n):
        run = parse_run((GOLDEN / "mixed.run").read_text(encoding="utf-8"))
        x = order_valuation(run.module, run.descent, n, dimension_cap=self.UNCAPPED)
        assert x == n * 2**n + 2 * 2**n

    def test_special_run_closed_form_at_level_fourteen(self):
        run = parse_run((GOLDEN / "special.run").read_text(encoding="utf-8"))
        x = order_valuation(run.module, run.descent, 14, dimension_cap=self.UNCAPPED)
        assert x == 14 * 2**14 + 2**14 + 2 * 14 == 245788

    @pytest.mark.parametrize("n", [40, 60])
    def test_special_run_split_off_part_is_counted(self, n):
        # the l^n split-off factors are counted, never listed
        run = parse_run((GOLDEN / "special.run").read_text(encoding="utf-8"))
        tracemalloc.start()
        try:
            x = order_valuation(run.module, run.descent, n, dimension_cap=self.UNCAPPED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x == n * 2**n + 2**n + 2 * n
        assert peak < 2**20

    def test_mixed_run_sequence_at_levels_in_the_hundreds(self):
        run = parse_run((GOLDEN / "mixed.run").read_text(encoding="utf-8"))
        seq = order_sequence(run.module, run.descent, 195, 200, dimension_cap=self.UNCAPPED)
        assert seq.values == tuple(n * 2**n + 2 * 2**n for n in range(195, 201))

    def test_touched_l_power_draw_frozen_values(self):
        # l = 5, e = 1: two free and two Lambda/(5) coordinates, all touched;
        # frozen from the full l^n monomial blocks, which took 20 s at n = 4
        rng = random.Random(1005)
        for _ in range(11):
            case = build_generic_case(rng, 5)
        values = [order_valuation(case.module, case.descent, n) for n in (3, 4)]
        assert values == [996, 6245]

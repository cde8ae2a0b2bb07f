"""Structural invariants, codescent defect, predicted growth parameters.

Defect oracles: the defect is a sum over the irreducible tower factors c of
deg(c) * rank of the generators' free-coordinate matrix reduced mod c. Each
frozen value below was computed by evaluating generators at the roots of c
(or reducing mod c by hand) and reading off the rank.
"""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from towergrowth import (
    DistinguishedFactor,
    ElementaryModule,
    GenericDescent,
    Grade,
    IntPoly,
    LPower,
    ModuleElement,
    ParamTriple,
    SpecialDescent,
    codescent_defect,
    defect_bound,
    fit_parameters,
    modules,
    order_sequence,
    predict_parameters,
    structural_invariants,
    validate_descent,
)

from conftest import build_generic_case, span_invariants

LAMBDA = ElementaryModule(prime=2, free_rank=1)


def _rank_one_gen(*coeffs):
    return ModuleElement(free_coords=(IntPoly(tuple(coeffs)),), torsion_coords=())


class TestStructuralInvariants:
    def test_mixed_module(self):
        mod = ElementaryModule(
            prime=2,
            free_rank=2,
            torsion_factors=(
                LPower(3),
                LPower(1),
                DistinguishedFactor(IntPoly((2, 1))),
                DistinguishedFactor(IntPoly((2, 2, 1))),
            ),
        )
        inv = structural_invariants(mod)
        assert (inv.free_rank, inv.mu, inv.lam) == (2, 4, 3)

    def test_zero_module(self):
        inv = structural_invariants(ElementaryModule(prime=3, free_rank=0))
        assert (inv.free_rank, inv.mu, inv.lam) == (0, 0, 0)


class TestCodescentDefect:
    def test_special_and_trivial_have_no_defect(self):
        assert codescent_defect(LAMBDA, SpecialDescent()) == 0
        assert codescent_defect(LAMBDA, GenericDescent(0, ())) == 0

    def test_full_span_level_zero(self):
        d = GenericDescent(0, (_rank_one_gen(1),))
        assert codescent_defect(LAMBDA, d) == 1

    def test_constant_two_generator(self):
        # 2 is a unit in the residue field mod T, so it still has rank 1
        d = GenericDescent(0, (_rank_one_gen(2),))
        assert codescent_defect(LAMBDA, d) == 1

    def test_full_span_level_one(self):
        d = GenericDescent(1, (_rank_one_gen(1), _rank_one_gen(0, 1)))
        assert codescent_defect(LAMBDA, d) == 2

    def test_monomial_level_one(self):
        # T vanishes mod T but not mod the level-1 ratio factor
        d = GenericDescent(1, (_rank_one_gen(0, 1),))
        assert codescent_defect(LAMBDA, d) == 1

    def test_quadratic_cofactor_level_two(self):
        # generators h', T*h' with h' = T^2+2T: zero mod T and mod T+2,
        # rank 1 against the degree-2 level-2 factor
        d = GenericDescent(2, (_rank_one_gen(0, 2, 1), _rank_one_gen(0, 0, 2, 1)))
        assert codescent_defect(LAMBDA, d) == 2

    def test_linear_cofactor_level_two(self):
        # generators h', T*h' with h' = T^2+2T+2: unit at both linear
        # factors, zero against the quadratic one
        d = GenericDescent(2, (_rank_one_gen(2, 2, 1), _rank_one_gen(0, 2, 2, 1)))
        assert codescent_defect(LAMBDA, d) == 2

    def test_dependent_rows_counted_once(self):
        mod = ElementaryModule(prime=2, free_rank=2)
        gen = ModuleElement(free_coords=(IntPoly((1,)), IntPoly((1,))), torsion_coords=())
        d = GenericDescent(0, (gen,))
        assert codescent_defect(mod, d) == 1

    def test_torsion_only_module_has_no_defect(self):
        mod = ElementaryModule(prime=2, free_rank=0, torsion_factors=(LPower(1),))
        one = ModuleElement(free_coords=(), torsion_coords=(IntPoly((1,)),))
        t = ModuleElement(free_coords=(), torsion_coords=(IntPoly((0, 1)),))
        assert codescent_defect(mod, GenericDescent(1, (one, t))) == 0

    def test_defect_bound(self):
        assert defect_bound(LAMBDA, GenericDescent(2, ())) == 4
        mod = ElementaryModule(prime=3, free_rank=2)
        assert defect_bound(mod, GenericDescent(1, ())) == 6
        assert defect_bound(mod, SpecialDescent()) == 0

    @given(seed=st.integers(0, 10_000), ell=st.sampled_from([2, 3, 5]))
    @settings(max_examples=40, deadline=None)
    def test_defect_within_bound_on_constructed_cases(self, seed, ell):
        case = build_generic_case(random.Random(seed), ell)
        kappa = codescent_defect(case.module, case.descent)
        assert 0 <= kappa <= defect_bound(case.module, case.descent)
        if case.expected_defect is not None:
            assert kappa == case.expected_defect

    def test_defect_is_the_one_pass_rank_of_the_free_rows(self, generic_corpus, eliminations):
        # the defect that validation's elimination counts (unit pivots of the
        # free rows first, then the rank of what they leave) against one
        # kernel run on the free rows alone, the route it replaced; the
        # corpus, then l = 3 and l = 5 draws
        draws = [(case, 2) for case in generic_corpus]
        sources = [(7003, 3), (7005, 5)]
        sources += [(seed, ell) for seed in (902, 903, 905, 11, 12) for ell in (3, 5)]
        for seed, ell in sources:
            rng = random.Random(seed)
            draws += [(build_generic_case(rng, ell), ell) for _ in range(200)]
        remainders = {2: 0, 3: 0, 5: 0}
        for case, ell in draws:
            module, descent = case.module, case.descent
            if not descent.generators:
                continue
            modules._reduction.cache_clear()
            eliminations.clear()
            kappa = codescent_defect(module, descent)
            layout, _, columns = modules._presentation(module, descent)
            stop = sum(m.degree for idx, _, m in layout if idx < module.free_rank)
            free = [{r: x for r, x in col.items() if r < stop} for col in columns]
            assert kappa == span_invariants(free, stop, ell)[0]
            # one elimination, and a kernel run only on a non-unit remainder
            assert eliminations[0][0] == "span_elimination"
            assert [name for name, *_ in eliminations[1:]] in ([], ["divisor_valuations"])
            remainders[ell] += len(eliminations) - 1
        # the remainder branch is rare but reached at every prime
        assert all(remainders.values()), remainders

    @pytest.mark.parametrize(
        "free,torsion,shape",
        [
            ((), (IntPoly((1,)),), "0+1"),
            ((IntPoly((1,)),), (), "1+0"),
            ((IntPoly((0, 1)), IntPoly((0, 1))), (IntPoly((0, 1)),), "2+1"),
        ],
        ids=["0+1", "1+0", "2+1"],
    )
    def test_generator_shape_is_checked(self, free, torsion, shape):
        # the defect and the prediction refuse a wrong shape as validation
        # does (1+0 raised IndexError and 2+1 gave a defect of 1)
        module = ElementaryModule(prime=2, free_rank=1, torsion_factors=(LPower(1),))
        descent = GenericDescent(1, (ModuleElement(free, torsion),))
        message = re.escape(f"element has {shape} coordinates, module needs 1+1")
        for call in (codescent_defect, predict_parameters, validate_descent):
            modules._reduction.cache_clear()
            with pytest.raises(ValueError, match=message):
                call(module, descent)

    def test_defect_matches_asymptotic_drop(self):
        # independent check through the growth-fitting path: a rank-one
        # module with the constant generator 2 at level 0 loses exactly
        # one unit of linear growth
        d = GenericDescent(0, (_rank_one_gen(2),))
        seq = order_sequence(LAMBDA, d, 1, 6)
        assert seq.values == (2, 7, 22, 61, 156, 379)
        fit = fit_parameters(seq)
        assert (fit.params.rho, fit.params.mu, fit.params.lam_tilde) == (1, 0, -1)
        assert codescent_defect(LAMBDA, d) == 1


class TestParamTriple:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParamTriple(rho=-1, mu=0, lam_tilde=0, grade=Grade.STRICT)
        with pytest.raises(ValueError):
            ParamTriple(rho=0, mu=-2, lam_tilde=0, grade=Grade.STRICT)
        ParamTriple(rho=0, mu=0, lam_tilde=-5, grade=Grade.BOUNDED)

    def test_same_triple_ignores_grade_and_tail(self):
        a = ParamTriple(rho=1, mu=2, lam_tilde=-1, grade=Grade.STRICT, nu=3)
        b = ParamTriple(rho=1, mu=2, lam_tilde=-1, grade=Grade.BOUNDED)
        c = ParamTriple(rho=1, mu=2, lam_tilde=0, grade=Grade.STRICT)
        assert a.same_triple(b)
        assert not a.same_triple(c)


class TestPredictParameters:
    MIXED = ElementaryModule(
        prime=2,
        free_rank=1,
        torsion_factors=(LPower(1), DistinguishedFactor(IntPoly((0, 1)))),
    )

    def test_special(self):
        p = predict_parameters(self.MIXED, SpecialDescent())
        assert (p.rho, p.mu, p.lam_tilde) == (1, 1, 2)
        assert p.grade is Grade.STRICT

    def test_trivial(self):
        p = predict_parameters(self.MIXED, GenericDescent(0, ()))
        assert (p.rho, p.mu, p.lam_tilde) == (1, 1, 1)
        assert p.grade is Grade.STRICT

    def test_generic_subtracts_defect(self):
        d = GenericDescent(1, (_rank_one_gen(1), _rank_one_gen(0, 1)))
        p = predict_parameters(LAMBDA, d)
        assert (p.rho, p.mu, p.lam_tilde) == (1, 0, -2)
        assert p.grade is Grade.BOUNDED

    def test_generic_empty_is_trivial_grade(self):
        p = predict_parameters(LAMBDA, GenericDescent(2, ()))
        assert (p.rho, p.mu, p.lam_tilde) == (1, 0, 0)
        assert p.grade is Grade.STRICT

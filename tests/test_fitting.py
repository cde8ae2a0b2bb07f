"""Growth-curve fitting and prediction verification.

The synthetic sequences below are built directly from the closed form
rho*n*l^n + mu*l^n + lam*n + nu plus a controlled perturbation, so the
expected fit is known without running any module code.
"""

import pytest
from hypothesis import given, settings, strategies as st

from towergrowth import (
    AmbiguousFitError,
    Grade,
    OrderSequence,
    ParamTriple,
    fit_parameters,
    verify_prediction,
)
from towergrowth.fitting import (
    BoundedSpread,
    Unbounded,
    UltimatelyConstant,
    default_spread_bound,
)


def _seq(values, prime=2, n_min=1, level=0, shift=0):
    return OrderSequence(prime, shift, level, n_min, tuple(values))


def _model(rho, mu, lam, nu, prime=2, n_lo=1, n_hi=6):
    return _seq(
        [rho * n * prime**n + mu * prime**n + lam * n + nu for n in range(n_lo, n_hi + 1)],
        prime=prime,
        n_min=n_lo,
    )


class TestExactFits:
    def test_planted_parameters_recovered(self):
        fit = fit_parameters(_model(1, 3, -2, 5))
        p = fit.params
        assert (p.rho, p.mu, p.lam_tilde) == (1, 3, -2)
        assert p.grade is Grade.STRICT
        assert p.nu == 5
        assert fit.classification == UltimatelyConstant(from_n=1, constant=5)
        assert fit.spread == 0

    def test_pure_linear(self):
        fit = fit_parameters(_seq([3, 6, 9, 12, 15]))
        assert (fit.params.rho, fit.params.mu, fit.params.lam_tilde) == (0, 0, 3)
        assert fit.params.nu == 0

    def test_odd_prime(self):
        fit = fit_parameters(_model(2, 0, -1, 4, prime=3))
        assert (fit.params.rho, fit.params.mu, fit.params.lam_tilde) == (2, 0, -1)
        assert fit.params.grade is Grade.STRICT

    @given(
        rho=st.integers(0, 3),
        mu=st.integers(0, 3),
        lam=st.integers(-6, 6),
        nu=st.integers(-10, 10),
        prime=st.sampled_from([2, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, rho, mu, lam, nu, prime):
        fit = fit_parameters(_model(rho, mu, lam, nu, prime=prime))
        p = fit.params
        assert (p.rho, p.mu, p.lam_tilde, p.nu) == (rho, mu, lam, nu)
        assert p.grade is Grade.STRICT


    @pytest.mark.parametrize("shift", [-1, 1, 3])
    def test_shifted_sequence_gives_unshifted_triple(self, shift):
        # x(n, k) = rho * (n + k) * l^n + mu * l^n + lam * n + nu
        values = [1 * (n + shift) * 2**n + 2 * 2**n - 3 * n + 4 for n in range(2, 8)]
        fit = fit_parameters(_seq(values, n_min=2, shift=shift))
        assert (fit.params.rho, fit.params.mu, fit.params.lam_tilde) == (1, 2, -3)
        assert fit.params.nu == 4

    def test_shifted_sequence_with_wobble_gives_unshifted_triple(self):
        # the enumeration path, past the exact trailing-window solve
        values = [2 * (n + 2) * 3**n + 3**n + n + n % 2 for n in range(1, 9)]
        fit = fit_parameters(_seq(values, prime=3, shift=2))
        assert (fit.params.rho, fit.params.mu, fit.params.lam_tilde) == (2, 1, 1)
        assert fit.params.grade is Grade.BOUNDED


class TestPerturbedFits:
    def test_parity_wobble_long_window(self):
        # x(n) = n*2^n + (n mod 2): non-constant residual, unique triple
        fit = fit_parameters(_seq([n * 2**n + n % 2 for n in range(1, 8)]))
        p = fit.params
        assert (p.rho, p.mu, p.lam_tilde) == (1, 0, 0)
        assert p.grade is Grade.BOUNDED
        assert fit.classification == BoundedSpread(low=0, high=1)
        assert fit.spread == 1
        assert fit.spread_bound == 4

    def test_parity_wobble_short_window_is_ambiguous(self):
        # on five entries lam +/- 1 also stays within the default bound
        with pytest.raises(AmbiguousFitError) as exc:
            fit_parameters(_seq([n * 2**n + n % 2 for n in range(1, 6)]))
        assert exc.value.candidates == (
            (1, 0, 0, 1),
            (1, 0, -1, 4),
            (1, 0, 1, 4),
        )
        assert "extend the level range" in str(exc.value)

    def test_parity_wobble_odd_prime_long_window(self):
        vals = [3 * n * 5**n + 7 * 5**n + n % 2 for n in range(1, 8)]
        fit = fit_parameters(_seq(vals, prime=5))
        assert (fit.params.rho, fit.params.mu, fit.params.lam_tilde) == (3, 7, 0)
        assert fit.classification == BoundedSpread(low=0, high=1)

    def test_large_oscillation_is_unbounded(self):
        vals = [n * 2**n + 50 * (-1) ** n for n in range(1, 8)]
        fit = fit_parameters(_seq(vals))
        assert (fit.params.rho, fit.params.mu, fit.params.lam_tilde) == (1, 0, 0)
        assert fit.classification == Unbounded(trend="oscillating")
        assert fit.spread == 100

    def test_widened_bound_turns_unbounded_into_ambiguous(self):
        vals = [n * 2**n + 50 * (-1) ** n for n in range(1, 8)]
        with pytest.raises(AmbiguousFitError) as exc:
            fit_parameters(_seq(vals), spread_bound=500)
        assert exc.value.candidates[0] == (1, 0, 0, 100)
        spreads = [c[3] for c in exc.value.candidates]
        assert spreads == sorted(spreads)

    def test_zero_bound_rejects_everything(self):
        # spread_bound=0 must be honored, not treated as unset
        fit = fit_parameters(
            _seq([n * 2**n + n % 2 for n in range(1, 8)]), spread_bound=0
        )
        assert fit.spread_bound == 0
        assert isinstance(fit.classification, Unbounded)
        assert (fit.params.rho, fit.params.mu, fit.params.lam_tilde) == (1, 0, 0)


class TestOutOfModelData:
    def test_negative_exponential_part_is_ambiguous(self):
        # (n-1)*2^n needs mu=-1, outside the admissible cone
        with pytest.raises(AmbiguousFitError) as exc:
            fit_parameters(_seq([(n - 1) * 2**n for n in range(2, 7)], n_min=2))
        assert exc.value.candidates[0] == (0, 6, -11, 11)

    def test_quadratic_is_ambiguous(self):
        with pytest.raises(AmbiguousFitError) as exc:
            fit_parameters(_seq([n * n for n in range(1, 8)]))
        assert exc.value.candidates[0] == (0, 0, 8, 9)


class TestInputValidation:
    def test_too_few_entries(self):
        with pytest.raises(ValueError):
            fit_parameters(_seq([2, 8, 24]))

    def test_default_spread_bound_values(self):
        assert default_spread_bound(0, 0) == 4
        assert default_spread_bound(1, 0) == 4
        assert default_spread_bound(-4, 2) == 32


class TestVerifyPrediction:
    UC_FIT = fit_parameters(_seq([n * 2**n for n in range(1, 7)]))
    BS_FIT = fit_parameters(_seq([n * 2**n + n % 2 for n in range(1, 8)]))
    UN_FIT = fit_parameters(_seq([n * 2**n + 50 * (-1) ** n for n in range(1, 8)]))

    def _pred(self, lam_tilde, grade):
        return ParamTriple(rho=1, mu=0, lam_tilde=lam_tilde, grade=grade)

    def test_strict_prediction_constant_residual_passes(self):
        rep = verify_prediction(self._pred(0, Grade.STRICT), self.UC_FIT)
        assert rep.passed
        assert rep.verdict == "PASS"

    def test_bounded_prediction_accepts_constant_residual(self):
        assert verify_prediction(self._pred(0, Grade.BOUNDED), self.UC_FIT).passed

    def test_strict_prediction_rejects_bounded_spread(self):
        rep = verify_prediction(self._pred(0, Grade.STRICT), self.BS_FIT)
        assert not rep.passed
        assert "ultimately constant" in rep.detail

    def test_bounded_prediction_accepts_bounded_spread(self):
        assert verify_prediction(self._pred(0, Grade.BOUNDED), self.BS_FIT).passed

    def test_triple_mismatch_fails(self):
        rep = verify_prediction(self._pred(1, Grade.BOUNDED), self.UC_FIT)
        assert not rep.passed
        assert rep.verdict == "FAIL"
        assert "mismatch" in rep.detail

    def test_unbounded_fit_always_fails(self):
        rep = verify_prediction(self._pred(0, Grade.BOUNDED), self.UN_FIT)
        assert not rep.passed

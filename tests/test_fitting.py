"""Growth-curve fitting and prediction verification.

The synthetic sequences below are built directly from the closed form
rho*n*l^n + mu*l^n + lam*n + nu plus a controlled perturbation, so the
expected fit is known without running any module code.
"""

from fractions import Fraction

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

    @pytest.mark.parametrize("sign,trend", [(1, "increasing"), (-1, "decreasing")])
    def test_drifting_residual_trend(self, sign, trend):
        # residuals 5, 10, 0, ... (or their negatives): the last above the first
        fit = fit_parameters(_seq([2**n + sign * 5 * (n % 3) for n in range(1, 9)]))
        assert (fit.params.rho, fit.params.mu, fit.params.lam_tilde) == (0, 1, 0)
        assert fit.classification == Unbounded(trend=trend)

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


def _planted(rho, mu, lam, residual, prime=2, n_lo=1, n_hi=6, shift=0):
    values = [
        rho * (n + shift) * prime**n + mu * prime**n + lam * n + residual(n)
        for n in range(n_lo, n_hi + 1)
    ]
    return _seq(values, prime=prime, n_min=n_lo, shift=shift)


def _reference_search(seq, rho_range, mu_range):
    """The grid search over the given pairs, with no clamp: a rational solve
    through the last four entries, then the pair of least difference range,
    its best lam_tilde and bound, and every triple whose spread meets it.

    Returns ("strict", triple) or ("search", center, best_lam, bound,
    ranked candidates as (rho, mu, lam_tilde, spread)).
    """
    ell, k = seq.prime, seq.shift
    rows = [
        [Fraction((n + k) * ell**n), Fraction(ell**n), Fraction(n), Fraction(1), Fraction(x)]
        for n, x in seq.entries[-4:]
    ]
    for col in range(4):
        src = next(i for i in range(col, 4) if rows[i][col])
        rows[col], rows[src] = rows[src], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i in range(4):
            if i != col:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[col])]
    rho, mu, lam, nu = (row[4] for row in rows)
    if all(v.denominator == 1 for v in (rho, mu, lam, nu)) and rho >= 0 and mu >= 0:
        return "strict", (int(rho), int(mu), int(lam))

    def base(r, m):
        return [x - (r * (n + k) + m) * ell**n for n, x in seq.entries]

    def spread(b, t):
        res = [v - t * n for v, (n, _) in zip(b, seq.entries)]
        return max(res) - min(res)

    ranges = {}
    for r in rho_range:
        for m in mu_range:
            b = base(r, m)
            d = [y - x for x, y in zip(b, b[1:])]
            ranges[(r, m)] = (min(d), max(d))
    center = min(ranges, key=lambda pr: (ranges[pr][1] - ranges[pr][0], pr))
    lo, hi = ranges[center]
    best_lam = min(range(lo, hi + 1), key=lambda t: (spread(base(*center), t), abs(t), t))
    bound = default_spread_bound(best_lam, seq.level)
    extension = bound // (seq.n_max - seq.n_min) + 2
    found = []
    for (r, m), (lo, hi) in ranges.items():
        if hi - lo <= 2 * bound:
            b = base(r, m)
            for t in range(lo - extension, hi + extension + 1):
                if spread(b, t) <= bound:
                    found.append((spread(b, t), r, m, t))
    return "search", center, best_lam, bound, [(r, m, t, s) for s, r, m, t in sorted(found)]


RESIDUALS = {
    "zero": lambda n: 0,
    "n mod 2": lambda n: n % 2,
    "n mod 3": lambda n: n % 3,
    "3 - n mod 2": lambda n: 3 - n % 2,
}


def _residual_spread(seq, rho, mu, lam):
    res = [
        x - rho * (n + seq.shift) * seq.prime**n - mu * seq.prime**n - lam * n
        for n, x in seq.entries
    ]
    return max(res) - min(res)


class TestCompleteness:
    """The fitter against an unclamped grid search over a box around the
    planted triple: the box gives the same answer, and every candidate the
    fitter lists outside the box genuinely qualifies."""

    MARGIN = 6

    @given(
        prime=st.sampled_from([2, 3, 5]),
        rho=st.integers(0, 100),
        mu=st.integers(0, 100),
        lam=st.integers(-40, 40),
        residual=st.sampled_from(sorted(RESIDUALS)),
        n_lo=st.integers(0, 3),
        extra=st.integers(0, 3),
        shift=st.integers(-2, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_unclamped_reference(
        self, prime, rho, mu, lam, residual, n_lo, extra, shift
    ):
        # windows long enough that the qualifying set stays small
        n_hi = max(n_lo + 4, {2: 6, 3: 4, 5: 3}[prime]) + extra
        shift = max(shift, 1 - n_lo)
        seq = _planted(rho, mu, lam, RESIDUALS[residual], prime, n_lo, n_hi, shift)
        box_rho = range(max(rho - self.MARGIN, 0), rho + self.MARGIN + 1)
        box_mu = range(max(mu - self.MARGIN, 0), mu + self.MARGIN + 1)
        reference = _reference_search(seq, box_rho, box_mu)
        try:
            fit = fit_parameters(seq)
        except AmbiguousFitError as exc:
            kind, center, best_lam, bound, expected = reference
            assert kind == "search"
            inside = [c for c in exc.candidates if c[0] in box_rho and c[1] in box_mu]
            assert inside == expected
            for r, m, t, s in exc.candidates:
                assert _residual_spread(seq, r, m, t) == s <= bound
            return
        p = fit.params
        if reference[0] == "strict":
            assert (p.rho, p.mu, p.lam_tilde) == reference[1]
            assert p.grade is Grade.STRICT
            return
        _, center, best_lam, bound, expected = reference
        assert fit.spread_bound == bound
        if isinstance(fit.classification, Unbounded):
            assert (p.rho, p.mu, p.lam_tilde) == (*center, best_lam)
            assert expected == []
        else:
            assert [(p.rho, p.mu, p.lam_tilde, fit.spread)] == expected


class TestLargeParameters:
    """Triples far beyond small grids, as the model allows."""

    @pytest.mark.parametrize(
        "prime, rho, mu, lam, residual",
        [(3, 300, 200, 5, "n mod 2"), (2, 150, 400, -30, "3 - n mod 2")],
    )
    def test_hundreds_are_recovered(self, prime, rho, mu, lam, residual):
        seq = _planted(rho, mu, lam, RESIDUALS[residual], prime, 1, 8)
        try:
            fit = fit_parameters(seq)
        except AmbiguousFitError as exc:
            assert exc.candidates[0][:3] == (rho, mu, lam)
        else:
            assert (fit.params.rho, fit.params.mu, fit.params.lam_tilde) == (rho, mu, lam)

    @pytest.mark.parametrize("rho", [70, 80])
    def test_negative_lambda_long_window(self, rho):
        # lam_tilde +/- 1 stay within the bound 2 * 9 * 2, so the ambiguity
        # is the right answer; the planted triple ranks first
        seq = _planted(rho, 0, -9, RESIDUALS["n mod 2"], 2, 1, 14)
        with pytest.raises(AmbiguousFitError) as exc:
            fit_parameters(seq)
        assert exc.value.candidates[0] == (rho, 0, -9, 1)
        assert {c[:3] for c in exc.value.candidates} >= {(rho, 0, -10), (rho, 0, -8)}

    def test_short_window_lists_the_planted_triple(self):
        seq = _planted(70, 0, 0, RESIDUALS["n mod 2"], 2, 1, 6)
        with pytest.raises(AmbiguousFitError) as exc:
            fit_parameters(seq)
        assert (70, 0, 0) in {c[:3] for c in exc.value.candidates}

"""Recover asymptotic growth parameters from a computed order sequence.

The model for an order sequence x(n) at a fixed exponent shift k is

    x(n) = rho * (n + k) * l^n + mu * l^n + lam_tilde * n + r(n)

with r(n) ultimately constant in the strict cases and merely of bounded
spread in the generic case.  Fitting works in two stages:

1. Solve the exact 4x4 linear system through the last four entries for
   (rho, mu, lam_tilde, nu) in rational arithmetic.  The system matrix on
   four consecutive levels is nonsingular, so if the sequence is exactly in
   model form on that window the solution is the unique explanation and is
   accepted outright when it is integral with rho, mu >= 0.

2. Otherwise enumerate integer pairs (rho, mu) up to caps read off the last
   entry.  A wrong exponential part inflates the consecutive differences of
   x(n) - rho * (n + k) * l^n - mu * l^n exponentially, so the pair whose
   difference range is smallest anchors the search, and lam_tilde ranges over
   a short interval around those differences.  A candidate qualifies when the
   spread of its residual sequence stays within the acceptance bound; two
   distinct qualifying candidates mean the window cannot tell them apart and
   fitting raises ``AmbiguousFitError`` rather than guess.  No qualifying
   candidate yields the minimum-spread triple marked as unbounded.

The default acceptance bound grows with the size of lam_tilde and the
descent level of the sequence: 2 * max(|lam_tilde|, 1) * (level + 2).
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from .invariants import Grade, ParamTriple
from .quotients import OrderSequence


@dataclasses.dataclass(frozen=True)
class UltimatelyConstant:
    """Residuals equal ``constant`` from level ``from_n`` through the end."""

    from_n: int
    constant: int


@dataclasses.dataclass(frozen=True)
class BoundedSpread:
    """Residuals stay within [low, high] but do not stabilize."""

    low: int
    high: int

    @property
    def spread(self) -> int:
        return self.high - self.low


@dataclasses.dataclass(frozen=True)
class Unbounded:
    """No candidate kept the residual spread within the acceptance bound."""

    trend: str  # "increasing", "decreasing" or "oscillating"


Classification = UltimatelyConstant | BoundedSpread | Unbounded


@dataclasses.dataclass(frozen=True)
class FitResult:
    params: ParamTriple
    n_min: int
    residuals: tuple[int, ...]
    classification: Classification
    spread_bound: int

    @property
    def spread(self) -> int:
        return max(self.residuals) - min(self.residuals)


class AmbiguousFitError(ValueError):
    """The window admits more than one qualifying parameter triple."""

    def __init__(self, candidates: list[tuple[int, int, int, int]]) -> None:
        self.candidates = tuple(candidates)
        shown = ", ".join(
            f"(rho={r}, mu={m}, lam_tilde={t}, spread={s})"
            for r, m, t, s in self.candidates[:4]
        )
        more = "" if len(self.candidates) <= 4 else f" and {len(self.candidates) - 4} more"
        super().__init__(
            f"{len(self.candidates)} parameter triples fit within the spread bound: "
            f"{shown}{more}; extend the level range to separate them"
        )


def default_spread_bound(lam_tilde: int, level: int) -> int:
    return 2 * max(abs(lam_tilde), 1) * (level + 2)


def _solve_trailing_window(seq: OrderSequence) -> tuple[Fraction, ...]:
    """Exact solution of the model through the last four entries."""
    ell = seq.prime
    rows = []
    rhs = []
    for n in range(seq.n_max - 3, seq.n_max + 1):
        power = Fraction(ell**n)
        rows.append([(n + seq.shift) * power, power, Fraction(n), Fraction(1)])
        rhs.append(Fraction(seq.value_at(n)))
    # Gaussian elimination; the matrix is nonsingular for consecutive levels
    m = [row + [b] for row, b in zip(rows, rhs)]
    size = 4
    for col in range(size):
        src = next(i for i in range(col, size) if m[i][col])
        m[col], m[src] = m[src], m[col]
        pivot = m[col][col]
        m[col] = [x / pivot for x in m[col]]
        for i in range(size):
            if i != col and m[i][col]:
                factor = m[i][col]
                m[i] = [x - factor * y for x, y in zip(m[i], m[col])]
    return tuple(m[i][size] for i in range(size))


def _base_series(seq: OrderSequence, rho: int, mu: int) -> list[int]:
    """x(n) less its exponential part rho * (n + k) * l^n + mu * l^n."""
    ell, k = seq.prime, seq.shift
    return [x - (rho * (n + k) + mu) * ell**n for n, x in seq.entries]


def _residuals(seq: OrderSequence, rho: int, mu: int, lam_tilde: int) -> list[int]:
    base = _base_series(seq, rho, mu)
    return [b - lam_tilde * n for b, (n, _) in zip(base, seq.entries)]


def _constant_tail_start(residuals: list[int], n_min: int) -> int | None:
    """Smallest n from which the residuals are constant; None if tail < 2."""
    j = len(residuals) - 1
    while j > 0 and residuals[j - 1] == residuals[-1]:
        j -= 1
    if len(residuals) - j < 2:
        return None
    return n_min + j


def _classify(residuals: list[int], n_min: int) -> Classification:
    start = _constant_tail_start(residuals, n_min)
    if start is not None:
        return UltimatelyConstant(from_n=start, constant=residuals[-1])
    return BoundedSpread(low=min(residuals), high=max(residuals))


def fit_parameters(
    seq: OrderSequence, *, spread_bound: int | None = None
) -> FitResult:
    """Fit (rho, mu, lam_tilde) to an order sequence of at least four entries.

    Raises ``AmbiguousFitError`` when several triples explain the window
    equally well and ``ValueError`` on windows that are too short.
    """
    if len(seq.values) < 4:
        raise ValueError("fitting needs at least four consecutive entries")
    ell = seq.prime
    rho_f, mu_f, lam_f, nu_f = _solve_trailing_window(seq)

    integral = all(f.denominator == 1 for f in (rho_f, mu_f, lam_f, nu_f))
    if integral and rho_f >= 0 and mu_f >= 0:
        rho, mu, lam_tilde = int(rho_f), int(mu_f), int(lam_f)
        residuals = _residuals(seq, rho, mu, lam_tilde)
        # exact through the last four levels, so the tail is constant there
        classification = _classify(residuals, seq.n_min)
        assert isinstance(classification, UltimatelyConstant)
        bound = (
            default_spread_bound(lam_tilde, seq.level)
            if spread_bound is None
            else spread_bound
        )
        params = ParamTriple(
            rho, mu, lam_tilde, Grade.STRICT, nu=classification.constant
        )
        return FitResult(
            params, seq.n_min, tuple(residuals), classification, bound
        )

    window = seq.n_max - seq.n_min  # >= 3

    def spread_for(base: list[int], lam_: int) -> int:
        r = [v - lam_ * n for v, (n, _) in zip(base, seq.entries)]
        return max(r) - min(r)

    # caps for the exponential coefficients, read off the last entry; the
    # rounded rational solution widens them when it is sane
    top = max(seq.values[-1], 0)
    rho_cap = top // ((seq.n_max + seq.shift) * ell**seq.n_max) + 1
    mu_cap = top // ell**seq.n_max + 1
    rho_cap = min(max(rho_cap, min(max(round(rho_f), 0), 63) + 1), 64)
    mu_cap = min(max(mu_cap, min(max(round(mu_f), 0), 63) + 1), 64)

    # a pair's residual spread is at least half its difference range, so the
    # smallest difference range anchors the acceptance bound
    ranges: dict[tuple[int, int], tuple[int, int]] = {}
    for rho_ in range(rho_cap + 1):
        for mu_ in range(mu_cap + 1):
            base = _base_series(seq, rho_, mu_)
            d = [b - a for a, b in zip(base, base[1:])]
            ranges[(rho_, mu_)] = (min(d), max(d))
    center_rho, center_mu = min(
        ranges, key=lambda p: (ranges[p][1] - ranges[p][0], p)
    )
    central = _base_series(seq, center_rho, center_mu)
    lam_lo, lam_hi = ranges[(center_rho, center_mu)]
    best_lam = min(
        range(lam_lo, lam_hi + 1),
        key=lambda t: (spread_for(central, t), abs(t), t),
    )
    bound = (
        default_spread_bound(best_lam, seq.level)
        if spread_bound is None
        else spread_bound
    )
    extension = bound // max(window, 1) + 2

    qualifying: dict[tuple[int, int, int], int] = {}
    for (rho_, mu_), (d_lo, d_hi) in ranges.items():
        if d_hi - d_lo > 2 * bound:
            continue
        base = _base_series(seq, rho_, mu_)
        for lam_ in range(d_lo - extension, d_hi + extension + 1):
            sp = spread_for(base, lam_)
            if sp <= bound:
                qualifying[(rho_, mu_, lam_)] = sp

    if len(qualifying) >= 2:
        ranked = sorted(
            (sp, rho_, mu_, lam_) for (rho_, mu_, lam_), sp in qualifying.items()
        )
        raise AmbiguousFitError([(r, m, t, sp) for sp, r, m, t in ranked])

    if qualifying:
        (rho, mu, lam_tilde), _ = next(iter(qualifying.items()))
        residuals = _residuals(seq, rho, mu, lam_tilde)
        classification = _classify(residuals, seq.n_min)
        strict = isinstance(classification, UltimatelyConstant)
        params = ParamTriple(
            rho,
            mu,
            lam_tilde,
            Grade.STRICT if strict else Grade.BOUNDED,
            nu=classification.constant if strict else None,
        )
        return FitResult(
            params, seq.n_min, tuple(residuals), classification, bound
        )

    # nothing met the bound; report the least bad triple as unbounded
    residuals = _residuals(seq, center_rho, center_mu, best_lam)
    if residuals[-1] > residuals[0]:
        trend = "increasing"
    elif residuals[-1] < residuals[0]:
        trend = "decreasing"
    else:
        trend = "oscillating"
    params = ParamTriple(center_rho, center_mu, best_lam, Grade.BOUNDED)
    return FitResult(
        params,
        seq.n_min,
        tuple(residuals),
        Unbounded(trend=trend),
        bound,
    )


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a fitted sequence against a prediction."""

    passed: bool
    predicted: ParamTriple
    fitted: ParamTriple
    classification: Classification
    detail: str

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def verify_prediction(predicted: ParamTriple, fit: FitResult) -> VerificationReport:
    """PASS iff the fitted triple matches and the residual behaviour is
    at least as tame as the predicted grade requires."""
    fitted = fit.params
    if not predicted.same_triple(fitted):
        detail = (
            f"parameter mismatch: predicted (rho={predicted.rho}, mu={predicted.mu}, "
            f"lam_tilde={predicted.lam_tilde}), fitted (rho={fitted.rho}, "
            f"mu={fitted.mu}, lam_tilde={fitted.lam_tilde})"
        )
        return VerificationReport(False, predicted, fitted, fit.classification, detail)
    cls = fit.classification
    if predicted.grade is Grade.STRICT and not isinstance(cls, UltimatelyConstant):
        detail = "strict prediction needs an ultimately constant residual"
        return VerificationReport(False, predicted, fitted, cls, detail)
    if isinstance(cls, Unbounded):
        detail = "residual spread exceeded the acceptance bound"
        return VerificationReport(False, predicted, fitted, cls, detail)
    if isinstance(cls, UltimatelyConstant):
        detail = f"residual constant at {cls.constant} from level {cls.from_n}"
    else:
        detail = f"residual spread {cls.spread} within bound {fit.spread_bound}"
    return VerificationReport(True, predicted, fitted, cls, detail)

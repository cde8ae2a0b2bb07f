"""Recover asymptotic growth parameters from a computed order sequence.

The model for an order sequence x(n) at a fixed exponent shift k is

    x(n) = rho * u(n) + mu * l^n + lam_tilde * n + r(n),   u(n) = (n + k) * l^n

with r(n) ultimately constant in the strict cases and merely of bounded
spread in the generic case.  Fitting rests on exact difference identities.
With D the forward difference, b(n) = x(n) - rho * u(n) - mu * l^n the
base series and e(n) = D^2 b(n), the linear terms drop out and

    e(n) = D^2 x(n) - rho * D^2 u(n) - mu * (l - 1)^2 * l^n,
    D^2 u(n) = (l - 1) * l^n * ((n + k) * (l - 1) + 2 * l),
    e(n) - l * e(n - 1) = D^2 x(n) - l * D^2 x(n - 1) - rho * (l - 1)^2 * l^n.

1. When the window ends in model form, e vanishes on the last four entries:
   rho and then mu are exact quotients at n = n_max - 2 and lam_tilde is
   the last difference of b.  That is the unique solution through those
   entries, accepted outright when integral with rho, mu >= 0.

2. Otherwise a pair (rho, mu) whose difference range max D b - min D b is
   at most w has |e(n)| <= w, so the identities pin rho, then mu, to
   intervals of width O(w / l^n); every pair in them is checked, so the
   pairs within any w are listed completely, with no cap.  A wrong
   exponential part inflates the differences exponentially, so the pair of
   smallest range (ties to the smaller rho, mu; found by doubling w until
   some pair meets it) anchors the search: lam_tilde ranges over its
   differences and sets the acceptance bound.  A
   triple qualifies when the spread of its residuals stays within the
   bound; its pair then has range at most twice the bound, and its
   lam_tilde form the interval |b(j) - b(i) - lam_tilde * (j - i)| <= bound.
   Two qualifying triples mean the window cannot tell them apart and
   fitting raises ``AmbiguousFitError`` rather than guess.  No qualifying
   triple yields the anchor's minimum-spread triple marked as unbounded.

The default acceptance bound grows with the size of lam_tilde and the
descent level of the sequence: 2 * max(|lam_tilde|, 1) * (level + 2).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterator
from itertools import combinations

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


def _base_series(seq: OrderSequence, rho: int, mu: int) -> list[int]:
    """x(n) less its exponential part rho * (n + k) * l^n + mu * l^n."""
    ell, k = seq.prime, seq.shift
    return [x - (rho * (n + k) + mu) * ell**n for n, x in seq.entries]


def _residuals(seq: OrderSequence, rho: int, mu: int, lam_tilde: int) -> list[int]:
    base = _base_series(seq, rho, mu)
    return [b - lam_tilde * n for b, (n, _) in zip(base, seq.entries)]


def _difference_bounds(seq: OrderSequence, rho: int, mu: int) -> tuple[int, int]:
    base = _base_series(seq, rho, mu)
    d = [b - a for a, b in zip(base, base[1:])]
    return min(d), max(d)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _pins(seq: OrderSequence) -> tuple[int, int, Callable[[int], int]]:
    """The identities at n = n_max - 2 as (p, s, q): p - rho * s is
    e(n) - l * e(n - 1), and q(rho) - mu * s is e(n)."""
    ell, n = seq.prime, seq.n_max - 2
    x = seq.value_at
    d2x = [x(m) - 2 * x(m + 1) + x(m + 2) for m in (n - 1, n)]
    d2u = (ell - 1) * ell**n * ((n + seq.shift) * (ell - 1) + 2 * ell)
    return d2x[1] - ell * d2x[0], (ell - 1) ** 2 * ell**n, lambda rho: d2x[1] - rho * d2u


def _pairs(seq: OrderSequence, w: int) -> Iterator[tuple[int, int, int]]:
    """(range, rho, mu) for every pair rho, mu >= 0 of difference range <= w."""
    p, s, q = _pins(seq)
    slack = (seq.prime + 1) * w  # bounds |e(n) - l * e(n - 1)| when |e| <= w
    for rho in range(max(_ceil_div(p - slack, s), 0), (p + slack) // s + 1):
        for mu in range(max(_ceil_div(q(rho) - w, s), 0), (q(rho) + w) // s + 1):
            lo, hi = _difference_bounds(seq, rho, mu)
            if hi - lo <= w:
                yield hi - lo, rho, mu


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


def check_fit_window(n_min: int, n_max: int) -> None:
    """A window of levels the fitter can read: at least four of them, so
    that callers reject a shorter one before computing any level."""
    if n_max - n_min < 3:
        raise ValueError("fitting needs at least four consecutive entries")


def fit_parameters(
    seq: OrderSequence, *, spread_bound: int | None = None
) -> FitResult:
    """Fit (rho, mu, lam_tilde) to an order sequence of at least four entries.

    Raises ``AmbiguousFitError`` when several triples explain the window
    equally well and ``ValueError`` on windows that are too short.
    """
    check_fit_window(seq.n_min, seq.n_max)

    def bound_for(lam_: int) -> int:
        return default_spread_bound(lam_, seq.level) if spread_bound is None else spread_bound

    def accept(rho: int, mu: int, lam_tilde: int, bound: int) -> FitResult:
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
        return FitResult(params, seq.n_min, tuple(residuals), classification, bound)

    p, s, q = _pins(seq)
    (rho, rho_rem), (mu, mu_rem) = divmod(p, s), divmod(q(p // s), s)
    if not rho_rem and not mu_rem and rho >= 0 and mu >= 0:
        base = _base_series(seq, rho, mu)
        lam_tilde = base[-1] - base[-2]
        fit = accept(rho, mu, lam_tilde, bound_for(lam_tilde))
        # exact through the last four levels, so the tail is constant there
        assert fit.params.grade is Grade.STRICT
        return fit

    def spread_for(base: list[int], lam_: int) -> int:
        r = [v - lam_ * n for v, (n, _) in zip(base, seq.entries)]
        return max(r) - min(r)

    # a pair's residual spread is at least half its difference range, so the
    # smallest difference range anchors the acceptance bound; the first w in
    # 0, 1, 3, 7, ... that some pair meets bounds it
    w = 0
    while not (near := list(_pairs(seq, w))):
        w = 2 * w + 1
    _, center_rho, center_mu = min(near)
    central = _base_series(seq, center_rho, center_mu)
    lam_lo, lam_hi = _difference_bounds(seq, center_rho, center_mu)
    best_lam = min(
        range(lam_lo, lam_hi + 1),
        key=lambda t: (spread_for(central, t), abs(t), t),
    )
    bound = bound_for(best_lam)

    qualifying: list[tuple[int, int, int, int]] = []  # (spread, rho, mu, lam_tilde)
    for _, rho_, mu_ in _pairs(seq, 2 * bound):
        base = _base_series(seq, rho_, mu_)
        steps = [(bj - bi, j - i) for (i, bi), (j, bj) in combinations(enumerate(base), 2)]
        low = max(_ceil_div(d - bound, gap) for d, gap in steps)
        high = min((d + bound) // gap for d, gap in steps)
        qualifying += [(spread_for(base, t), rho_, mu_, t) for t in range(low, high + 1)]

    if len(qualifying) >= 2:
        raise AmbiguousFitError([(r, m, t, sp) for sp, r, m, t in sorted(qualifying)])

    if qualifying:
        return accept(*qualifying[0][1:], bound)

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

"""Beta-prior marginal likelihood, Bayes factor, and posterior probability of the null.

The competing models are a point null (theta = 0.5) and an alternative that
smears theta over [0, 1] with a Beta(a, b) prior.  The marginal likelihood
under the alternative has the closed form C(n,s) * B(s+a, n-s+b) / B(a, b),
so no quadrature happens at runtime.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._checks import MAX_SHAPE, _Checked, _check_instance, _check_positive, _check_unit
from .binomial_kernel import (
    BinomialOutcome,
    SelectionMode,
    TailConvention,
    _log_term,
    select_barely_significant,
)

__all__ = [
    "BetaPrior",
    "EvidenceReport",
    "ThresholdEvidence",
    "log_marginal_h1",
    "posterior_h0",
    "evidence_at_threshold",
]

class BetaPrior(_Checked, NamedTuple("BetaPrior", [("a", float), ("b", float)])):
    """Beta(a, b) shape pair for the alternative's success probability; each shape in (0, MAX_SHAPE]."""

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        _check_positive(a, "prior shape a", MAX_SHAPE)
        _check_positive(b, "prior shape b", MAX_SHAPE)
        return super().__new__(cls, a, b)

    @classmethod
    def uniform(cls) -> "BetaPrior":
        """The flat Beta(1, 1) prior — the library-wide default."""
        return cls(1.0, 1.0)


class EvidenceReport(NamedTuple):
    """Everything the null-vs-alternative comparison yields for one outcome.

    bf01 and posterior_odds_h1 (= 1/bf01) depend on the data and prior only;
    posterior_h0 additionally folds in the prior model probability pi0 that
    was passed to posterior_h0().
    """

    log_l0: float
    log_l1: float
    bf01: float
    posterior_h0: float
    posterior_odds_h1: float


class ThresholdEvidence(NamedTuple):
    """A barely-significant success count together with its evidence report."""

    s: int
    p_achieved: float
    report: EvidenceReport


_UNIFORM = BetaPrior.uniform()


def _prior_or_uniform(prior: BetaPrior | None) -> BetaPrior:
    """The prior itself, or the one shared flat Beta(1, 1) for None; any other type is a ValueError."""
    return _UNIFORM if prior is None else _check_instance(prior, BetaPrior, "prior")


def _betaln(x: float, y: float) -> float:
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def log_marginal_h1(outcome: BinomialOutcome, prior: BetaPrior | None = None) -> float:
    """ln of C(n,s) * B(s+a, n-s+b) / B(a, b), the alternative's marginal likelihood.

    Written as -ln(n+1) + [ln B(s+a, n-s+b) - ln B(s+1, n-s+1)] - ln B(a, b)
    using C(n,s) = 1 / ((n+1) * B(s+1, n-s+1)).  For the uniform prior the
    bracket cancels term for term, so it is not evaluated, and the 1/(n+1)
    identity holds to the last bit instead of drowning in lgamma noise.
    """
    return posterior_h0(outcome, prior).log_l1


def _scorer(prior: BetaPrior | None, pi0: float):
    """score(n, s, log_l0) -> (ln L1, posterior of H0) for a prior (None is flat) and pi0; one per search."""
    prior = _prior_or_uniform(prior)
    a, b = float(prior.a), float(prior.b)
    flat, log_beta_ab, log_prior_odds = a == 1.0 and b == 1.0, _betaln(a, b), math.log1p(-pi0) - math.log(pi0)

    def score(n: int, s: int, log_l0: float) -> tuple[float, float]:
        bracket = 0.0 if flat else _betaln(s + a, n - s + b) - _betaln(s + 1.0, n - s + 1.0)
        log_l1 = -math.log(n + 1.0) + bracket - log_beta_ab
        # posterior = 1 / (1 + ((1-pi0)/pi0) / bf01), evaluated as a logistic of
        # log odds so that extreme Bayes factors neither overflow nor underflow.
        d = log_prior_odds - (log_l0 - log_l1)
        if d >= 0.0:
            e = math.exp(-d)
            return log_l1, e / (1.0 + e)
        return log_l1, 1.0 / (1.0 + math.exp(d))

    return score


def _ln_bf_floor(prior: BetaPrior | None, pi0: float, level: float) -> float:
    """A floor under ln(L0 (n + 1)), L0 = exp(log_l0), at every (n, s, log_l0) with n <= MAX_N that
    _scorer(prior, pi0) scores at level or above; -inf for a prior that is not flat, and for level = ulp(0).

    Under the flat prior ln L1 = -log(n + 1), as ln B(1, 1) = lgamma(1) + lgamma(1) - lgamma(2) is +0
    (C99 Annex F), so ln BF01 = ln(L0 (n + 1)), and the posterior reaches lo exactly where ln BF01 >=
    T = ln odds + ln(lo / (1 - lo)), ln odds = ln((1 - pi0) / pi0).  With eps = 2**-52, the floor gives way
    to score's roundings:
    - the logistic.  exp errs by at most eps relative, or ulp(0) absolute where it is subnormal, and the sum
      and the quotient by eps/2 each, so a posterior that rounds to level or above is the rounding of an
      exact logistic of score's d of at least lo = (level - ulp(0)) (1 - 4 eps).  In d that costs about
      4 eps / (1 - level) near level -> 1 (2 at level = 1 - 2**-53) and about ulp(0) / level at a subnormal
      level; at level = ulp(0), lo = 0 bounds nothing.  (Where lo is subnormal, the product rounds back to
      level - ulp(0): at most 4 eps in ln lo, inside the margin below.)
    - d = ln odds - (l0 - l1), l0 - l1 and log(n + 1), which round by eps/2, eps/2 and eps of their sizes.
      Near the floor d is near ln((1 - lo) / lo) and l0 - l1 near T, and ln(n + 1) < 17, so each size is
      below S = |ln odds| + |ln lo| + |ln(1 - lo)| + 64: 2 eps S in all.
    - T itself, from two logs and two sums, 3 eps S, and the floor's own subtraction, eps S.
    So 8 eps S under the float T is a floor.  _march adds the rounding of its own bound.
    """
    prior = _prior_or_uniform(prior)
    eps = math.ulp(1.0)
    lo = (level - math.ulp(0.0)) * (1.0 - 4.0 * eps)
    if prior.a != 1.0 or prior.b != 1.0 or lo <= 0.0:
        return -math.inf
    log_prior_odds, log_lo, log_hi = math.log1p(-pi0) - math.log(pi0), math.log(lo), math.log1p(-lo)
    return log_prior_odds + (log_lo - log_hi) - 8.0 * eps * (abs(log_prior_odds) + abs(log_lo) - log_hi + 64.0)


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def posterior_h0(
    outcome: BinomialOutcome,
    prior: BetaPrior | None = None,
    prior_prob_h0: float = 0.5,
) -> EvidenceReport:
    """Compare the point null against the Beta-smeared alternative.

    With the default equal prior odds the posterior reduces to
    l0 / (l0 + l1); everything stays in log space until the final ratio.
    """
    n, s = _check_instance(outcome, BinomialOutcome, "outcome").n, outcome.s
    score = _scorer(prior, _check_unit(prior_prob_h0, "prior_prob_h0"))
    log_l0 = _log_term(n, s)
    log_l1, post = score(n, s, log_l0)
    return EvidenceReport(
        log_l0=log_l0,
        log_l1=log_l1,
        bf01=_exp_or_inf(log_l0 - log_l1),
        posterior_h0=post,
        posterior_odds_h1=_exp_or_inf(log_l1 - log_l0),
    )


def evidence_at_threshold(
    n: int,
    alpha: float,
    mode: SelectionMode = SelectionMode.NEAREST_TO_ALPHA,
    tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC,
    prior: BetaPrior | None = None,
    prior_prob_h0: float = 0.5,
) -> ThresholdEvidence:
    """Evidence carried by a result that is barely significant at alpha.

    Composes select_barely_significant with posterior_h0; its InfeasibleError
    propagates unchanged.
    """
    s, p_achieved = select_barely_significant(n, alpha, mode, tail)
    report = posterior_h0(BinomialOutcome(n, s), prior, prior_prob_h0)
    return ThresholdEvidence(s=s, p_achieved=p_achieved, report=report)

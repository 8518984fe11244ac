"""Beta-prior marginal likelihood, Bayes factor, and posterior probability of the null.

The competing models are a point null (theta = 0.5) and an alternative that
smears theta over [0, 1] with a Beta(a, b) prior.  The marginal likelihood
under the alternative has the closed form C(n,s) * B(s+a, n-s+b) / B(a, b),
so no quadrature happens at runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .binomial_kernel import (
    _LN2,
    BinomialOutcome,
    SelectionMode,
    TailConvention,
    log_choose,
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

@dataclass(frozen=True)
class BetaPrior:
    """Beta(a, b) shape pair for the alternative's success probability."""

    a: float
    b: float

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b)):
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not ok or not value > 0.0 or math.isinf(value):
                raise ValueError(f"prior shape {name} must be a positive finite real, got {value!r}")

    @classmethod
    def uniform(cls) -> "BetaPrior":
        """The flat Beta(1, 1) prior — the library-wide default."""
        return cls(1.0, 1.0)


@dataclass(frozen=True)
class EvidenceReport:
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


def _betaln(x: float, y: float) -> float:
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def log_marginal_h1(outcome: BinomialOutcome, prior: BetaPrior | None = None) -> float:
    """ln of C(n,s) * B(s+a, n-s+b) / B(a, b), the alternative's marginal likelihood.

    Written as -ln(n+1) + [ln B(s+a, n-s+b) - ln B(s+1, n-s+1)] - ln B(a, b)
    using C(n,s) = 1 / ((n+1) * B(s+1, n-s+1)).  For the uniform prior the
    bracket cancels term-for-term in floating point, so the 1/(n+1) identity
    holds to the last bit instead of drowning in large-argument lgamma noise.
    """
    return _evidence(outcome.n, outcome.s, prior if prior is not None else BetaPrior.uniform())[1]


def _evidence(n: int, s: int, prior: BetaPrior, pi0: float = 0.5) -> tuple[float, float, float]:
    """(ln L0, ln L1, posterior of H0) from plain ints: posterior_h0's arithmetic, no dataclass."""
    a, b = float(prior.a), float(prior.b)
    bracket = _betaln(s + a, n - s + b) - _betaln(s + 1.0, n - s + 1.0)
    log_l0 = log_choose(n, s) - n * _LN2  # log_pmf's expression at theta = 0.5
    log_l1 = -math.log(n + 1.0) + bracket - _betaln(a, b)
    return log_l0, log_l1, _posterior_from_log_bf(log_l0 - log_l1, pi0)


def _posterior_from_log_bf(log_bf01: float, pi0: float) -> float:
    # posterior = 1 / (1 + ((1-pi0)/pi0) / bf01), evaluated as a logistic of
    # log odds so that extreme Bayes factors neither overflow nor underflow.
    d = (math.log1p(-pi0) - math.log(pi0)) - log_bf01
    if d >= 0.0:
        e = math.exp(-d)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(d))


def posterior_h0(
    outcome: BinomialOutcome,
    prior: BetaPrior | None = None,
    prior_prob_h0: float = 0.5,
) -> EvidenceReport:
    """Compare the point null against the Beta-smeared alternative.

    With the default equal prior odds the posterior reduces to
    l0 / (l0 + l1); everything stays in log space until the final ratio.
    """
    if prior is None:
        prior = BetaPrior.uniform()
    if not isinstance(prior_prob_h0, (int, float)) or isinstance(prior_prob_h0, bool):
        raise ValueError(f"prior_prob_h0 must be a real number, got {prior_prob_h0!r}")
    pi0 = float(prior_prob_h0)
    if not 0.0 < pi0 < 1.0:
        raise ValueError(f"prior_prob_h0 must lie strictly between 0 and 1, got {pi0!r}")
    log_l0, log_l1, post = _evidence(outcome.n, outcome.s, prior, pi0)
    log_bf01 = log_l0 - log_l1
    try:
        bf01 = math.exp(log_bf01)
    except OverflowError:
        bf01 = math.inf
    return EvidenceReport(
        log_l0=log_l0,
        log_l1=log_l1,
        bf01=bf01,
        posterior_h0=post,
        posterior_odds_h1=math.inf if bf01 == 0.0 else 1.0 / bf01,
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

    Composes select_barely_significant with posterior_h0; strict-mode
    infeasibility propagates unchanged.
    """
    s, p_achieved = select_barely_significant(n, alpha, mode, tail)
    report = posterior_h0(BinomialOutcome(n, s), prior, prior_prob_h0)
    return ThresholdEvidence(s=s, p_achieved=p_achieved, report=report)

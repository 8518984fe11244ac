"""One-sided z-test power, minimal sample size, and evidence-odds comparison.

The test is H0: mu = mu0 against a one-sided shift to mu_alt with known
sigma.  The one-sided convention is deliberate and load-bearing: it is what
makes the canonical (mu0=40, mu_alt=43, sigma=8, beta=.02) design come out at
N=98 for alpha=.05 and N=137 for alpha=.01 (two-sided would give 107/146).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._checks import (_FLOAT_MAX, _Checked, _check_instance, _check_n, _check_pair, _check_positive, _check_real,
                      _check_unit)
from .bayes_evidence import BetaPrior, _exp_or_inf, evidence_at_threshold
from .binomial_kernel import SelectionMode, TailConvention
from .gaussian_numerics import normal_cdf, normal_quantile

__all__ = ["ZTestDesign", "DiagnosticityGain", "required_n", "achieved_power", "diagnosticity_gain"]


class ZTestDesign(_Checked, NamedTuple("ZTestDesign", [("mu0", float), ("mu_alt", float), ("sigma", float),
                                                       ("alpha", float), ("beta", float)])):
    """mu0/mu_alt/sigma plus the error budget (alpha, beta)."""

    __slots__ = ()

    def __new__(cls, mu0: float, mu_alt: float, sigma: float, alpha: float, beta: float):
        m0, m1 = _check_real(mu0, "mu0"), _check_real(mu_alt, "mu_alt")
        _check_positive(sigma, "sigma")
        if m1 == m0:
            raise ValueError("mu_alt must differ from mu0 (zero effect has no power curve)")
        _check_unit(alpha, "alpha")
        _check_unit(beta, "beta")
        return super().__new__(cls, mu0, mu_alt, sigma, alpha, beta)

    @property
    def effect(self) -> float:
        return abs(float(self.mu_alt) - float(self.mu0))


class DiagnosticityGain(NamedTuple):
    odds_a: float
    odds_b: float
    ratio: float


def achieved_power(n: int, design: ZTestDesign) -> float:
    """Power of the one-sided z-test at sample size n.

    Phi(delta*sqrt(n)/sigma - z_{1-alpha}), with z_{1-alpha} = -Phi^{-1}(alpha); n must convert to a float.  Where
    delta*sqrt(n)/sigma overflows, the power is Phi(+inf) = 1.
    """
    _check_n(n, "sample size n", limit=_FLOAT_MAX)
    z_alpha = -normal_quantile(_check_instance(design, ZTestDesign, "design").alpha)
    z = design.effect * math.sqrt(n) / design.sigma - z_alpha
    return 1.0 if z == math.inf else normal_cdf(z)


def required_n(design: ZTestDesign) -> int:
    """Smallest n whose achieved power reaches 1 - beta.

    Starts from ceil(((z_{1-alpha} + z_{1-beta}) * sigma / delta)^2) and then
    settles the boundary by direct power evaluation, so minimality holds even
    when the closed form lands a hair on the wrong side of an integer.  Power
    is non-decreasing in n, so a galloping bracket and a bisection find it in
    O(log) evaluations, also far above 2**53 where a unit step in n cannot
    move the float power.
    Raises ValueError when the closed form overflows a float.
    """
    z_alpha = -normal_quantile(_check_instance(design, ZTestDesign, "design").alpha)
    z_beta = -normal_quantile(design.beta)
    try:
        n = max(1, math.ceil(((z_alpha + z_beta) * design.sigma / design.effect) ** 2))
    except OverflowError:  # from ** 2, or from ceil(inf)
        raise ValueError(f"effect/sigma ratio {design.effect:g}/{design.sigma:g} overflows n") from None
    target = 1.0 - design.beta
    lo, hi, step = n - 1, n, 1  # gallop until lo (or 0) falls short and hi reaches target, then bisect
    while achieved_power(hi, design) < target:
        lo, hi, step = hi, hi + step, 2 * step
    while lo >= 1 and achieved_power(lo, design) >= target:
        lo, hi, step = max(0, lo - step), lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if achieved_power(mid, design) >= target else (mid, hi)
    return hi


def diagnosticity_gain(
    point_a: tuple[float, int],
    point_b: tuple[float, int],
    mode: SelectionMode = SelectionMode.NEAREST_TO_ALPHA,
    prior: BetaPrior | None = None,
    tail: TailConvention = TailConvention.TWO_SIDED_SYMMETRIC,
) -> DiagnosticityGain:
    """Posterior odds against the null at two (alpha, n) operating points.

    Each point is scored by the evidence a barely-significant sign-test
    outcome at that (alpha, n) carries; ratio = odds_b / odds_a measures how
    much more diagnostic the second operating point is.  It is taken from the
    two ln BF01, so it stays finite where both odds overflow or underflow.
    An InfeasibleError at either point propagates.
    """
    alpha_a, n_a = _check_pair(point_a, "point_a")
    alpha_b, n_b = _check_pair(point_b, "point_b")
    a = evidence_at_threshold(n_a, alpha_a, mode, tail, prior).report
    b = evidence_at_threshold(n_b, alpha_b, mode, tail, prior).report
    ratio = _exp_or_inf((a.log_l0 - a.log_l1) - (b.log_l0 - b.log_l1))
    return DiagnosticityGain(odds_a=a.posterior_odds_h1, odds_b=b.posterior_odds_h1, ratio=ratio)

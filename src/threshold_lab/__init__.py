"""threshold-lab: evidence calibration for significance thresholds.

What does a result that is *just* significant at some alpha actually say?
This package answers that exactly, for the binomial sign test: it selects the
barely-significant success count at a given (n, alpha), scores it with a
Beta-prior Bayes factor and the posterior probability of the null, maps
p-values to replication probabilities, prices thresholds in sample size via
one-sided z-test power, and sweeps all of it over (alpha x n) grids with
crossing search and jitter diagnostics.

Binomial mass is computed in log space through log-gamma, with no normal
approximation; the log-gamma differences lose digits as n grows (pmf error
up to 2.8e-9 relative for k in [n/2, n/2 + 7 sqrt(n)] at n = 1e6).  The
normal CDF uses erfc, the quantile the standard library's NormalDist.inv_cdf.
"""

from .bayes_evidence import (
    BetaPrior,
    EvidenceReport,
    ThresholdEvidence,
    evidence_at_threshold,
    log_marginal_h1,
    posterior_h0,
)
from .binomial_kernel import (
    BinomialModel,
    BinomialOutcome,
    CriticalValue,
    InfeasibleError,
    SelectionMode,
    TailConvention,
    log_choose,
    log_pmf,
    min_attainable_p,
    p_value,
    select_barely_significant,
)
from .gaussian_numerics import normal_cdf, normal_quantile
from .power_design import (
    DiagnosticityGain,
    ZTestDesign,
    achieved_power,
    diagnosticity_gain,
    required_n,
)
from .replicability import PrepReport, p_rep
from .sweep_report import (
    DEFAULT_ALPHAS,
    DEFAULT_N_VALUES,
    JitterViolation,
    SweepGrid,
    SweepRow,
    emit,
    find_crossing,
    jitter_report,
    parse_csv,
    parse_json,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # binomial kernel
    "BinomialOutcome",
    "BinomialModel",
    "TailConvention",
    "SelectionMode",
    "CriticalValue",
    "InfeasibleError",
    "log_choose",
    "log_pmf",
    "p_value",
    "min_attainable_p",
    "select_barely_significant",
    # evidence
    "BetaPrior",
    "EvidenceReport",
    "ThresholdEvidence",
    "log_marginal_h1",
    "posterior_h0",
    "evidence_at_threshold",
    # gaussian numerics
    "normal_cdf",
    "normal_quantile",
    # replicability
    "PrepReport",
    "p_rep",
    # power
    "ZTestDesign",
    "DiagnosticityGain",
    "required_n",
    "achieved_power",
    "diagnosticity_gain",
    # sweep
    "DEFAULT_N_VALUES",
    "DEFAULT_ALPHAS",
    "SweepGrid",
    "SweepRow",
    "JitterViolation",
    "run_sweep",
    "find_crossing",
    "jitter_report",
    "emit",
    "parse_csv",
    "parse_json",
]

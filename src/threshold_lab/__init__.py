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

from .bayes_evidence import *
from .binomial_kernel import *
from .gaussian_numerics import *
from .power_design import *
from .replicability import *
from .sweep_report import *

__version__ = "0.1.0"

__all__ = ["__version__", *bayes_evidence.__all__, *binomial_kernel.__all__, *gaussian_numerics.__all__,
           *power_design.__all__, *replicability.__all__, *sweep_report.__all__]

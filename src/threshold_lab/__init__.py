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

Importing the package loads none of its modules (PEP 562), so that
`import threshold_lab.cli` loads only what the CLI's command runs.  The
first name looked up here that the package does not bind yet loads every
library module and binds, here, each name in each module's __all__: an
exported name such as threshold_lab.p_value, __all__, `from threshold_lab
import *` and dir() do, and so does the lookup that `from threshold_lab
import cli` makes before it imports cli.  The benchmark's tracer relies on
that last one: its worker runs `from threshold_lab import cli,
sweep_report`, and the tracer then reads every module from sys.modules.
"""

__version__ = "0.1.0"

_MODULES = ("bayes_evidence", "binomial_kernel", "gaussian_numerics", "power_design", "replicability",
            "sweep_report")


def __getattr__(name: str):
    namespace = globals()
    if "__all__" not in namespace:  # the first miss
        from importlib import import_module

        modules = [import_module(f"{__name__}.{module}") for module in _MODULES]
        namespace.update((export, getattr(module, export)) for module in modules for export in module.__all__)
        namespace["__all__"] = ["__version__", *(export for module in modules for export in module.__all__)]
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    __getattr__("__all__")
    return list(globals())

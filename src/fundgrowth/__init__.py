"""Growth-optimal portfolio estimation in fund models.

Numerical library plus batch CLI: symmetric-PSD primitives, synthetic market
simulation, local frequentist estimation of fund exposures, Bayesian
filtering of the growth-optimal portfolio, growth-loss functionals, optimal
shrinkage via a scalar fixed point, and a daily backtest pipeline.

Its API is its modules, such as ``fundgrowth.psd``; the package re-exports no names.
Importing the package imports none of them: each is imported the first time it
is read, so that a process loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name: str):
    """The submodule ``fundgrowth.<name>``, imported on first use (PEP 562)."""
    if not name.startswith("__"):
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Growth-optimal portfolio estimation in fund models.

Numerical library plus batch CLI: symmetric-PSD primitives, synthetic market
simulation, local frequentist estimation of fund exposures, Bayesian
filtering of the growth-optimal portfolio, growth-loss functionals, optimal
shrinkage via a scalar fixed point, and a daily backtest pipeline.

Its API is its modules, such as ``fundgrowth.psd``; the package re-exports no names.
"""

from . import backtest, errors, estimators, filtering, marketsim, psd, shrinkage

__version__ = "0.1.0"

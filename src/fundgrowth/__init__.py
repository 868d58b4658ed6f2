"""Growth-optimal portfolio estimation in fund models.

Numerical library plus batch CLI: symmetric-PSD primitives, synthetic market
simulation, local frequentist estimation of fund exposures, Bayesian
filtering of the growth-optimal portfolio, growth-loss functionals, optimal
shrinkage via a scalar fixed point, and a daily backtest pipeline.
"""

from . import errors
from .backtest import (
    BacktestConfig,
    BacktestSeries,
    ReturnSeries,
    ingest_csv,
    run_backtest,
)
from .estimators import LocalWindow, dis, estimate_theta, mc_distance_from_growth, mse
from .filtering import (
    PosteriorState,
    f_growth_increment,
    gaussian_posterior,
    growth_loss,
    portfolio_growth_variance,
    restricted_growth_loss,
    truncated_posterior_1d,
)
from .marketsim import (
    FundSpec,
    MarketPath,
    PriorSpec,
    build_fund_model,
    draw_prior,
    residual_drift_check,
    simulate_path,
    uniform_clock,
)
from .psd import (
    CovMatrix,
    Projection,
    check_lemma_error_reduction,
    mat_sqrt,
    projection_from_frame,
    subspace_pinv,
)
from .shrinkage import (
    ShrinkResult,
    cardano_a,
    psi_constant_cov,
    psi_one_fund,
    shrink_portfolio,
    solve_b,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "CovMatrix", "Projection", "mat_sqrt", "projection_from_frame",
    "subspace_pinv", "check_lemma_error_reduction",
    "PriorSpec", "FundSpec", "MarketPath", "draw_prior", "simulate_path",
    "build_fund_model", "residual_drift_check", "uniform_clock",
    "LocalWindow", "estimate_theta", "mse", "dis", "mc_distance_from_growth",
    "PosteriorState", "gaussian_posterior", "truncated_posterior_1d",
    "f_growth_increment", "growth_loss", "restricted_growth_loss",
    "portfolio_growth_variance",
    "ShrinkResult", "solve_b", "shrink_portfolio", "cardano_a",
    "psi_one_fund", "psi_constant_cov",
    "ReturnSeries", "BacktestConfig", "BacktestSeries", "ingest_csv",
    "run_backtest",
]

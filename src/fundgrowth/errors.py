"""Exception types shared across the library."""


class FundgrowthError(Exception):
    """Base class for all library-specific errors."""


class RankDeficient(FundgrowthError):
    """A frame or fund-loading matrix has numerically dependent columns."""


class SingularOnSubspace(FundgrowthError):
    """A matrix restricted to the span of a fund frame fails ``psd.is_definite``."""


class SingularCrossCovariance(FundgrowthError):
    """The cross-covariance between a fund combination and the funds is singular."""


class SingularC(FundgrowthError):
    """A cumulative covariance matrix is not positive definite."""


class BadTruncation(FundgrowthError):
    """A truncation interval is not supported where it was supplied, or
    carries no prior probability in double precision."""


class EmptyGrid(FundgrowthError):
    """An operational-clock grid has fewer than one step."""


class DegenerateInterval(FundgrowthError):
    """A truncated posterior's variance is not positive: it lies below the double range."""


class NoConvergence(FundgrowthError):
    """An iterative solver failed to reach its residual target."""


class InsufficientBurnIn(FundgrowthError):
    """The cumulative covariance is not positive definite when burn-in ends."""


class ParseError(FundgrowthError):
    """A CSV row or config line could not be parsed."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NonMonotoneDates(FundgrowthError):
    """Dates in a return series are not strictly increasing."""


class EmptySeries(FundgrowthError):
    """A return series contains no usable rows."""


class MissingColumns(FundgrowthError):
    """A CSV file lacks columns required by the consumer."""


class EmptyRange(FundgrowthError):
    """A report was requested over an empty post-burn-in range."""


class ConfigError(FundgrowthError):
    """A config file contains unknown keys or inconsistent values."""

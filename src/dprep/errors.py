"""Exception types shared across the package."""


class DprepError(Exception):
    """Base class for package-specific failures."""


class ConfigError(DprepError):
    """Invalid argument, option, or violated precondition."""


class IngestionError(DprepError):
    """Malformed or incomplete input data."""


class TransformDomainError(DprepError):
    """A column transform was evaluated outside its domain."""


class BudgetExceededError(DprepError):
    """A release would push the privacy ledger past its cap."""


class LedgerCorruptError(DprepError):
    """A ledger file holds a line that is not a valid release record."""


class SingularFitError(DprepError):
    """A least-squares fit could not be completed.

    Carries the subset index (and model tag, for dual-model runs) so a
    failed partition fit can be reported precisely instead of being
    silently imputed.
    """

    def __init__(self, message, subset=None, model=None):
        super().__init__(message)
        self.subset = subset
        self.model = model


class InsufficientDataError(SingularFitError):
    """Too few rows for the requested model."""


class DegenerateIntervalError(DprepError):
    """An interval has zero length where positive length is required."""

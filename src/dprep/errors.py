"""Exception types shared across the package."""


class DprepError(Exception):
    """Base class for package-specific failures."""


class ConfigError(DprepError):
    """Invalid argument, option, or violated precondition."""


class IngestionError(DprepError):
    """Malformed or incomplete input data."""


class TransformDomainError(DprepError):
    """A design cell, or a number fitted from the design, is not finite: a
    transform evaluated outside its domain, or an overflow."""


class BudgetExceededError(DprepError):
    """A release would push the privacy ledger past its cap."""


class LedgerCorruptError(DprepError):
    """A ledger file holds a line that is not a valid release record."""


class SingularFitError(DprepError):
    """A least-squares fit could not be completed."""


class InsufficientDataError(SingularFitError):
    """Too few rows for the requested model."""


class DegenerateIntervalError(DprepError):
    """An interval has zero length where positive length is required."""

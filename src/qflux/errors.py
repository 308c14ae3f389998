"""Exception hierarchy shared by all qflux modules."""


class QfluxError(Exception):
    """Base class for all package-specific failures."""


class DimensionError(QfluxError):
    """Operands live on incompatible Hilbert spaces."""


class TruncationError(QfluxError):
    """No admissible Fock cutoff keeps the discarded tail below tolerance."""


class DomainError(QfluxError, ValueError):
    """A scalar argument is outside the mathematical domain of a formula."""


class DegenerateMapError(QfluxError):
    """Gibbs rescaling normalizer vanished; the mapped state is undefined."""


class IncommensurateError(QfluxError):
    """Frequencies admit too few cross-sector degeneracies for nontrivial dynamics."""


class WindowError(QfluxError):
    """Requested battery levels fall outside the translation-invariant interior."""


class UndefinedRatioError(QfluxError):
    """A conditional ratio is requested where numerator or denominator has no support."""


class ConfigError(QfluxError):
    """Scenario configuration violates the schema."""


class BudgetExceededError(QfluxError):
    """Verification run exceeded its wall-clock budget."""

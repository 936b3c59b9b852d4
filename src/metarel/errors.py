"""Exception types shared across the package, and the check of integer
counts that raises one.

The CLI maps these onto exit codes: usage errors exit 2, numeric errors
exit 3, ingest errors exit 4.
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(ValueError):
    """Inconsistent model/query configuration (layer counts, missing fields)."""


class CalibrationError(RuntimeError):
    """Coefficient calibration is degenerate or failed to converge."""


class SearchError(RuntimeError):
    """A root/bisection search has no bracket on the given interval."""


class ScenarioError(ValueError):
    """Absorption-table shape does not match the requested solution scheme."""


class IngestError(ValueError):
    """External data (absorption table, curve CSV) failed validation."""


class UsageError(ValueError):
    """Invalid command-line or sweep specification."""


def check_count(name: str, value, minimum: int) -> int:
    """``value`` as an int if it is a finite integer >= ``minimum`` (2.0
    passes; 2.5, inf and NaN do not), else a DomainError."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}")
    return count

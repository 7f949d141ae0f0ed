"""Exception hierarchy.

Every error raised on purpose by this package derives from StratLogitError
and carries an ``exit_code`` used by the command line front end:

    2  configuration errors (bad flag values, a bad parameter passed to a
       library call such as ``fit_logistic`` or ``make_split``, unknown
       feature names, an output path that cannot be written)
    3  data errors (unreadable input, schema violations, degenerate inputs)
    4  numerical errors (separation, singular systems, non-convergence)
    5  internal invariant breaches detected during report emission
"""

from __future__ import annotations

import numbers


class StratLogitError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    code = "error"


class ConfigError(StratLogitError):
    """Invalid configuration or command line argument."""

    exit_code = 2
    code = "config_error"


def require_number(name: str, value, integer: bool = False) -> None:
    """ConfigError unless ``value`` is a real number, or with ``integer``
    an integer (a Python or numpy one); a bool is neither."""
    if isinstance(value, bool) or not isinstance(
        value, numbers.Integral if integer else numbers.Real
    ):
        kind = "an integer" if integer else "a real number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


class DataError(StratLogitError):
    """Problem with input data (file level or value level)."""

    exit_code = 3
    code = "data_error"


class MissingColumnError(DataError):
    code = "missing_column"


class CellParseError(DataError):
    """A single cell failed to parse or violated a type constraint."""

    code = "cell_parse_error"

    def __init__(self, row: int, column: str, raw: str, reason: str):
        self.row = row
        self.column = column
        self.raw = raw
        self.reason = reason
        super().__init__(f"row {row}, column {column}: {reason} (got {raw!r})")


class DuplicateIdError(DataError):
    code = "duplicate_id"


class RecordInvariantError(DataError):
    """Cross-field constraint violated within one row."""

    code = "record_invariant"

    def __init__(self, row: int, reason: str):
        self.row = row
        self.reason = reason
        super().__init__(f"row {row}: {reason}")


class DegenerateInputError(DataError):
    """Input is syntactically fine but outside the computable domain.

    Examples: zero account_days feeding a rate, a single-class target,
    an empty train or validation partition, fewer rows than columns.
    """

    code = "degenerate_input"


class NumericalError(StratLogitError):
    exit_code = 4
    code = "numerical_error"


class SeparationError(NumericalError):
    """Coefficients diverged: the classes are (quasi-)separable."""

    code = "separation"


class SingularMatrixError(NumericalError):
    """A matrix that must be positive definite is not (collinearity)."""

    code = "singular_matrix"


class NotConvergedError(NumericalError):
    code = "not_converged"


class InvariantBreachError(StratLogitError):
    """A cross-quantity identity failed verification at emission time."""

    exit_code = 5
    code = "invariant_breach"


class PipelineError(StratLogitError):
    """Wraps a stage failure with the stage name and underlying code."""

    def __init__(self, stage: str, cause: StratLogitError, partial_report: bool):
        self.stage = stage
        self.cause = cause
        self.partial_report = partial_report
        self.exit_code = cause.exit_code
        self.code = cause.code
        super().__init__(f"stage {stage}: {cause}")

"""Error classes shared across the package.

Each class carries the process exit code the CLI maps it to, so library
code can raise precise errors and the CLI stays a thin translation layer.
"""


class CircGnnError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputParseError(CircGnnError):
    """Malformed or unreadable input: bad edge-list line, broken CSV/JSON, missing file.

    The CLI also exits with this code when an output file cannot be written.
    """

    exit_code = 2


class SchemaError(CircGnnError):
    """Structurally valid input that violates a contract: bad dims, unknown variant, value out of range."""

    exit_code = 3


class InfeasibleError(CircGnnError):
    """No hardware configuration satisfies the resource budget."""

    exit_code = 4


class InternalConsistencyError(CircGnnError):
    """A self-check failed, e.g. a layer output that is NaN or inf."""

    exit_code = 5

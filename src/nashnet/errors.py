"""Exception hierarchy shared across the package.

Each class maps to one CLI exit code so failure modes stay distinguishable
end to end.
"""


class NashnetError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(NashnetError):
    """Scenario file could not be parsed."""

    exit_code = 2


class ValidationError(NashnetError):
    """Input data violates a declared assumption or structural contract."""

    exit_code = 3


class NumericError(NashnetError):
    """A computation produced non-finite values or failed to converge."""

    exit_code = 4


class ResourceError(NashnetError):
    """A configured budget (grid evaluations, iteration cap) was exceeded,
    or a forked CSV formatting helper failed."""

    exit_code = 5

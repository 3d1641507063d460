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
    """The grid oracle cannot search the scenario: the grid holds more than
    ``saddle.GRID_BUDGET`` cells, or a block has dimension above 2 or an
    infinite box bound. Or an adaptive learner's banks exceed
    ``stepsizes.LEARNER_BANK_CAP`` entries, or an iteration count is too
    large to tabulate."""

    exit_code = 5

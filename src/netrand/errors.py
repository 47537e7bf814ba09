"""Exception types shared across the package."""


class NetrandError(Exception):
    """Base class for all package-specific errors."""


class DataError(NetrandError):
    """Invalid input data: parsing, schema, or value-domain problems."""


class ParseError(DataError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MissingColumn(DataError):
    pass


class NonBinaryTreatment(DataError):
    pass


class IndexOutOfRange(DataError):
    pass


class SelfLoop(DataError):
    pass


class EmptyCell(DataError):
    pass


class InfeasibleCounts(DataError):
    pass


class MappingFailure(NetrandError):
    """A custom exposure rule raised or returned an undeclared value."""


class MissingParameter(NetrandError):
    """A null specification lacks the effect value needed for imputation."""


class GenerationBudgetExhausted(NetrandError):
    """Random graph generation failed within the retry budget."""


class InfeasibleConditioning(NetrandError):
    """Base class for conditioning failures (CLI exit code 3)."""


class EmptyArm(InfeasibleConditioning):
    """An estimation cell has no treated or no control units."""


class DegenerateInterval(InfeasibleConditioning):
    """A moment-based interval has zero or non-finite width."""


class EmptySuperFocal(InfeasibleConditioning):
    pass


class AcceptanceBudgetExhausted(InfeasibleConditioning):
    pass


class ArmEmptyAfterRetries(InfeasibleConditioning):
    pass


class TooFewUnits(InfeasibleConditioning):
    """Too few units in an arm to compute a sample variance."""


class SplitInfeasible(InfeasibleConditioning):
    """A sample split leaves a cell's estimation side with no units in an arm."""

"""Exception types shared across the package."""


class AkcArcError(Exception):
    """Base class for all package errors."""


class ShapeError(AkcArcError):
    """Operands have incompatible shapes."""


class InvalidInput(AkcArcError):
    """Input violates a value precondition (non-finite, bad range, ...)."""


class EmptyInput(AkcArcError):
    """An operand that must be non-empty is empty."""


class MissingClassError(AkcArcError):
    """A class id has no labeled example where one is required."""


class InvalidLabel(AkcArcError):
    """A label is outside the valid class range."""


class InvalidSplit(AkcArcError):
    """A requested labeled/unlabeled split is infeasible."""


class ConfigError(AkcArcError):
    """Experiment or task configuration is invalid."""


class ParseError(AkcArcError):
    """A data file could not be parsed; message carries the location."""


class WriteError(AkcArcError):
    """A result file could not be written; message names the file."""

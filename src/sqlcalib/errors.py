"""Exception types shared across the toolkit."""


class SqlCalibError(Exception):
    """Base class for all toolkit errors. Each passes every constructor
    argument to ``Exception``, so it pickles by the standard protocol."""


class ParseError(SqlCalibError):
    """Input SQL is outside the supported grammar subset or malformed.

    Carries the byte offset of the offending token and a description of
    what was expected there.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(message, offset)
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.args[0]} (at offset {self.offset})"


class EmptyPool(SqlCalibError):
    """A frequency pool has no parseable member left."""


class SchemaMismatch(SqlCalibError):
    """Feature schema of the data does not match what the consumer expects."""


class SingleClass(SqlCalibError):
    """Labels contain only one class; a calibration fit is undefined."""


class NonFinite(SqlCalibError):
    """Feature matrix or fitted model contains NaN or infinite entries, or
    the fit cannot be carried out in floating point."""


class LengthMismatch(SqlCalibError):
    """Paired score/label sequences have different lengths."""


class EmptyInput(SqlCalibError):
    """A metric was asked to evaluate zero examples."""


class OutOfDomain(SqlCalibError):
    """A metric was given a label other than 0 or 1, or a score it cannot
    score: not a finite number, or for a probability outside [0, 1]."""


class NoUsableCandidate(SqlCalibError):
    """No parseable candidate exists in the requested scope."""


class SchemaError(SqlCalibError):
    """An input record is missing a required field or has a bad value."""


class JsonError(SqlCalibError):
    """A line of a JSONL file is not valid JSON."""


class IdMismatch(SqlCalibError):
    """Two scored files do not cover the same example ids."""

"""Exception types shared across the toolkit."""


class SqlCalibError(Exception):
    """Base class for all toolkit errors."""

    def __reduce__(self):
        # rebuilt without __init__, whose parameters differ between subclasses,
        # so an error raised in a worker process reaches the parent intact
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class ParseError(SqlCalibError):
    """Input SQL is outside the supported grammar subset or malformed.

    Carries the byte offset of the offending token and a description of
    what was expected there.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


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

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class IdMismatch(SqlCalibError):
    """Two scored files do not cover the same example ids."""

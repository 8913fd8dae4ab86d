"""Exception types shared across the package."""


class SubsetSelectionError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SubsetSelectionError, ValueError):
    """An input violates a documented precondition or invariant."""


class FeatureFormatError(SubsetSelectionError, ValueError):
    """A feature file has a bad magic string, version, or checksum."""


class TruncationError(FeatureFormatError):
    """A feature file's declared size disagrees with its payload."""


class LabelParseError(SubsetSelectionError, ValueError):
    """A label file line is not a non-negative integer."""

    def __init__(self, path, line_number: int, content: str):
        self.line_number = line_number
        self.content = content
        super().__init__(f"{path}: line {line_number}: not a non-negative integer: "
                         f"{content!r}")


class CapacityError(SubsetSelectionError):
    """A computation exceeds a size limit: a dense n x n float32 kernel
    (4 n^2 bytes) the memory that can be allocated."""


class UnsupportedObjectiveError(SubsetSelectionError, TypeError):
    """An optimizer was handed an objective it cannot handle."""

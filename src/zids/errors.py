"""Exception types shared across the toolkit.

Each class carries the exit code and the stderr prefix that `zids`
reports it with: cli.main prints "<prefix>: <message>" and returns the
code.
"""

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class ZidsError(Exception):
    """Base class for all toolkit errors; a data error unless a subclass
    says otherwise."""

    exit_code = EXIT_DATA
    prefix = "data error"


class ConfigError(ZidsError):
    """Bad flag or config-file value; exits with the usage code."""

    exit_code = EXIT_USAGE
    prefix = "error"


class MalformedLineError(ZidsError):
    """A KDD99 line does not have exactly 42 comma-separated fields."""

    def __init__(self, line_no: int, field_count: int):
        self.line_no = line_no
        self.field_count = field_count
        super().__init__(
            f"line {line_no}: expected 42 fields, found {field_count}"
        )


class FieldTypeError(ZidsError):
    """A continuous field failed to parse as a finite non-negative number."""

    def __init__(self, line_no: int, column: int, value: str = ""):
        self.line_no = line_no
        self.column = column
        self.value = value
        super().__init__(
            f"line {line_no}, column {column}: not a finite non-negative "
            f"number: {value!r}"
        )


class UnknownLabelError(ZidsError):
    """A record label has no category in dataset.CATEGORY_OF."""

    def __init__(self, line_no: int, label: str):
        self.line_no = line_no
        self.label = label
        super().__init__(f"line {line_no}: unknown label: {label!r}")


class MissingClassError(ZidsError):
    """A class index in 0..K-1 has no row where every class needs one.
    The message, if given, replaces the generic one: a caller that knows
    the file and the class names says which."""

    def __init__(self, class_index: int, message: str = ""):
        self.class_index = class_index
        super().__init__(message or f"class {class_index} has no rows")


class OutOfRangeError(ZidsError):
    """A count or index argument fell outside its valid range."""


class CorruptContainerError(ZidsError):
    """A dataset container file failed structural validation."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"corrupt dataset container: {reason}")


class BadDimsError(ConfigError):
    """Layer dimensions are unusable (fewer than two, non-positive, or a
    layer larger than numpy can address)."""


class ShapeMismatchError(ZidsError):
    """Array shapes are inconsistent with the model or with each other."""


class NonFiniteLossError(ZidsError):
    """Training produced a NaN or infinite loss."""

    exit_code = EXIT_NUMERIC
    prefix = "numeric failure"

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"non-finite loss at epoch {epoch}")


class CorruptModelError(ZidsError):
    """A model file failed checksum or structural validation."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"corrupt model file: {reason}")


class VersionMismatchError(ZidsError):
    """A serialized artifact has an unsupported format version; the
    message is led by the artifact's path."""

    def __init__(self, path, found: int, supported: int):
        self.path = str(path)
        self.found = found
        self.supported = supported
        super().__init__(
            f"{path}: unsupported format version {found} (supported: {supported})"
        )


class LabelOutOfRangeError(ZidsError):
    """A label fell outside 0..K-1 when computing a confusion matrix."""


class MalformedReportError(ZidsError):
    """A report document lacks a field of report.json (the dataclasses.asdict
    of a metrics.ClassificationReport), or has one of the wrong type."""


class EmptyMatrixError(ZidsError):
    """A classification report was requested for an all-zero matrix."""


class BadBudgetError(ConfigError):
    """The coalition budget is too small to carry any information, or
    asks for more masks than numpy can address."""


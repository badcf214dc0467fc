"""Exception types shared across the package, and the model reader's type checks.

Every pipeline failure carries a stable ``code`` string; the CLI prints it
in front of the human message so harnesses can match on it.
"""

import reprlib


class DafrError(Exception):
    """Base class for pipeline failures."""

    code = "pipeline"


class InputError(DafrError):
    """Bad input file or schema: missing file, missing column, empty table."""

    code = "input"


class CellError(InputError):
    """A cell failed to parse or is non-finite; the message names row and column."""

    code = "bad-cell"


class ZeroTargetError(DafrError):
    """A percentage-error metric was requested with a zero target value."""

    code = "zero-target"


class RankDeficientError(DafrError):
    """The design matrix has linearly dependent columns and no ridge penalty."""

    code = "rank-deficient"


class SegmentSizeError(DafrError):
    """A target segment ended up with too few rows to fit its own model."""

    code = "segment-too-small"


class WidthMismatchError(DafrError):
    """Feature width of the input does not match what the model was trained on."""

    code = "width-mismatch"


class ModelFormatError(DafrError):
    """A persisted model file could not be parsed or has an unknown version."""

    code = "model-parse"


def json_int(obj: dict, key: str) -> int:
    """``obj[key]`` when it is a JSON integer; any other value of a model
    field that counts something (``true``, ``5.7``, ``"5"``) is refused."""
    value = obj[key]
    if type(value) is not int:
        raise ModelFormatError(
            f"malformed model document: {key!r} must be an integer, got {value!r}")
    return value


def json_float(obj: dict, key: str):
    """``obj[key]`` when it is a JSON number, or a list of them for a field
    that holds a vector; the caller converts it. A float field holding
    anything else (``true``, ``"19.9"``, ``null``, or a list holding such a
    value) is refused."""
    value = obj[key]
    vector = type(value) is list
    if any(type(v) not in (int, float) for v in (value if vector else [value])):
        raise ModelFormatError(
            f"malformed model document: {key!r} must be "
            f"{'a list of numbers' if vector else 'a number'}, got {reprlib.repr(value)}")
    return value

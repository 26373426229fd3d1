"""Error types shared across the package.

A LimprofError's ``code`` is a stable machine-readable tag and its
``exit_code`` the CLI's exit status: 2 for malformed input or an output
path that cannot be written (the default), 3 past a resource cap, 4 for an
InternalError. The CLI reports any exception that is not a LimprofError as
``internal`` with exit 4: a limprof bug.
"""


class LimprofError(Exception):
    """Base error. ``code`` is a stable tag, ``exit_code`` the CLI mapping."""

    code = "error"
    exit_code = 2  # malformed input / hypothesis unmet


class ShapeError(LimprofError):
    code = "shape"


class UnavoidableError(LimprofError):
    """A functional to avoid vanishes identically on the search space."""

    code = "unavoidable"


class EmptyInputError(LimprofError):
    code = "empty"


class BadRelationError(LimprofError):
    code = "bad-relation"


class ZeroDirectionError(LimprofError):
    code = "zero-direction"


class UnwritableError(LimprofError):
    """An output file cannot be written: a bad output path is a bad argument."""

    code = "unwritable"


class TooLargeError(LimprofError):
    """A resource cap was exceeded (enumeration would be too big)."""

    code = "too-large"
    exit_code = 3


class DuplicateColumnsError(LimprofError):
    code = "duplicate-columns"


class TooFewRowsError(LimprofError):
    code = "too-few-rows"


class RangeError(LimprofError):
    code = "range"


class DegenerateError(LimprofError):
    code = "degenerate"


class CollinearError(LimprofError):
    code = "collinear"


class InternalError(LimprofError):
    """An invariant the code guarantees failed: a bug in limprof, not in the
    input. Raised instead of ``assert``, which ``python -O`` strips."""

    code = "internal"
    exit_code = 4

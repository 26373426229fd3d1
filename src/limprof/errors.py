"""Error types shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can map
failures onto its exit-code contract without parsing messages.
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

"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``code`` so the command line
front end can emit stable identifiers on stderr.
"""


class LatentwError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "E_VALIDATION"


class SpaceTooLargeError(LatentwError):
    """Requested sample space exceeds the configured outcome budget."""

    code = "E_SPACE_TOO_LARGE"


class EmptySampleError(LatentwError):
    """An estimation operation was given a sample of size zero."""

    code = "E_EMPTY_SAMPLE"


class CountsFileError(LatentwError):
    """A counts TSV file is malformed (bad header, symbols, duplicates)."""

    code = "E_COUNTS_FILE"


class NotExchangeableError(LatentwError):
    """A distribution required to be exchangeable is not (within tolerance)."""

    code = "E_NOT_EXCHANGEABLE"


class ResidualNotPureError(LatentwError):
    """A residual distribution carries a non-zero exchangeable weight."""

    code = "E_RESIDUAL_NOT_PURE"


class EmptyIndexSetError(LatentwError):
    """A marginalization index set is empty."""

    code = "E_EMPTY_INDEX_SET"


class DimensionTooLargeError(LatentwError):
    """Optimization parameter dimension exceeds the configured limit."""

    code = "E_DIMENSION_TOO_LARGE"


class TiedArgminError(LatentwError):
    """A per-class minimum is not uniquely achieved, so the Gaussian
    asymptotic-variance formula does not apply."""

    code = "E_TIED_ARGMIN"


class EpireadParseError(LatentwError):
    """A line of an epiread file could not be parsed; ``path`` names the
    file when the lines came from one."""

    code = "E_PARSE"

    def __init__(self, line_number: int, reason: str,
                 path: str | None = None):
        self.line_number = line_number
        self.reason = reason
        self.path = path
        prefix = f"{path}: " if path else ""
        super().__init__(f"{prefix}line {line_number}: {reason}")


class DegenerateGroupError(LatentwError):
    """Correlation requested on a group where a variable is constant."""

    code = "E_DEGENERATE_GROUP"

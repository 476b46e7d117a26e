"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all sparsedioph errors."""


class DimensionMismatch(Error):
    """Operands have incompatible shapes or index sets."""


class RankDeficient(Error):
    """A full-row-rank matrix was required."""


class SingularBasis(Error):
    """The selected column basis has zero determinant."""


class NonPositive(Error):
    """A positive integer argument was required."""


class FactorizationTimeout(Error):
    """Pollard rho exceeded its iteration cap without splitting the input."""


class InvalidDelta(Error):
    """Worst-case instance generation needs a determinant target >= 2."""


class NotPositivelySpanning(Error):
    """The columns do not positively span the ambient space."""


class NoSignMix(Error):
    """A vector with both positive and negative entries was required."""


class InfeasibleInput(Error):
    """A supplied starting point does not satisfy its constraints."""


class CapExceeded(Error):
    """A search would exceed one of its caps on size or work."""


class ParseError(Error):
    """Malformed input text; carries source name, line and column (1-based)."""

    def __init__(self, message: str, line: int, column: int, source: str = "<input>"):
        super().__init__(f"{source}:{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.source = source

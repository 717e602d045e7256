"""Exception hierarchy shared across the package."""


class LatticeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LatticeError):
    """Malformed input file or malformed scalar literal."""


class InadmissiblePrefixError(LatticeError):
    """The GSO met a zero star norm that does not start a hyperbolic pair.

    `index` is the position where the GSO stopped, when there is one.
    """

    def __init__(self, message: str, index: int | None = None):
        self.index = index
        super().__init__(message)


class IsotropicVectorError(LatticeError):
    """The absolute-value baseline hit an isotropic orthogonalized vector."""

    def __init__(self, index: int):
        self.index = index
        super().__init__(f"isotropic GSO vector encountered at position {index + 1}")


class InternalInvariantError(LatticeError):
    """An internal consistency check failed; indicates an implementation bug."""
